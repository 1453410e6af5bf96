// Package mpi simulates the message-passing substrate of the multi-node
// evaluation (§8.4): ranks run as goroutines inside one process,
// point-to-point messages and collectives move real data, and a network
// model (per-message latency plus size/bandwidth, InfiniBand-EDR-like)
// advances each rank's virtual clock. Ranks synchronise their virtual
// clocks at communication points, which is how weak-scaling curves pick
// up communication overhead.
//
// The fabric is deadline-aware: a rank that blocks on a peer which has
// left the job (its body returned, with or without an error) does not
// hang — it waits the reliable-transport retransmit timeout in virtual
// time and fails with ErrDeadline. Cancellation propagates through
// RunContext: every blocking operation also honours the run context.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/telemetry"
)

// ErrMessageLost reports a message dropped by the fabric on every
// retransmit attempt (injected faults exhausted the retry budget).
var ErrMessageLost = errors.New("mpi: message lost after retransmit attempts")

// ErrDeadline reports a blocking operation abandoned because the peer
// (or the rest of the world) left the job: the caller waited one
// retransmit timeout of virtual time and gave up instead of hanging.
var ErrDeadline = errors.New("mpi: deadline exceeded waiting for peer")

// Fault-injection sites exposed by this package (qualified per sending
// rank: "mpi.send:r3").
const SiteSend = "mpi.send"

// maxSendAttempts bounds the retransmit loop: a send whose every attempt
// is dropped fails with ErrMessageLost instead of retrying forever.
const maxSendAttempts = 4

func init() {
	fault.RegisterError("mpi.message_lost", ErrMessageLost)
	fault.RegisterError("mpi.deadline", ErrDeadline)
}

// NetworkModel describes the interconnect cost model.
type NetworkModel struct {
	// LatencySec is the per-message latency (one hop; DragonFly+ keeps
	// this nearly diameter-independent).
	LatencySec float64
	// BandwidthBytes is the per-link bandwidth in bytes/second.
	BandwidthBytes float64
	// SameNodeFactor discounts intra-node transfers (NVLink/shared
	// memory): cost is multiplied by this factor when both ranks sit on
	// the same node.
	SameNodeFactor float64
}

// EDRFabric models a Mellanox InfiniBand EDR DragonFly+ network (the
// Marconi-100 interconnect).
func EDRFabric() NetworkModel {
	return NetworkModel{
		LatencySec:     1.5e-6,
		BandwidthBytes: 12.5e9, // 100 Gb/s
		SameNodeFactor: 0.25,
	}
}

// transferTime returns the virtual cost of moving n bytes.
func (nm NetworkModel) transferTime(bytes int, sameNode bool) float64 {
	t := nm.LatencySec + float64(bytes)/nm.BandwidthBytes
	if sameNode {
		t *= nm.SameNodeFactor
	}
	return t
}

// barRelease is one barrier round: waiters block on ch, which closes
// when the last rank arrives (failed=false) or when a departure makes
// completion impossible (failed=true).
type barRelease struct {
	ch     chan struct{}
	max    float64
	failed bool
}

// World is one simulated MPI job: a fixed set of ranks with mailboxes
// and a reusable clock-synchronising barrier.
type World struct {
	size         int
	net          NetworkModel
	ranksPerNode int

	mu    sync.Mutex
	boxes map[mailKey]chan message

	barMu    sync.Mutex
	barCount int
	cur      *barRelease
	departed int             // ranks whose body has returned this run
	gone     []chan struct{} // gone[r] closes when rank r departs

	reduceMu     sync.Mutex
	reduceAcc    []float64
	reduceResult []float64

	injMu sync.Mutex
	inj   *fault.Injector

	telMu sync.Mutex
	tel   *telemetry.Registry
}

type mailKey struct {
	from, to, tag int
}

type message struct {
	data   []float32
	sentAt float64 // sender's virtual time when the send completed
}

// NewWorld creates a world with size ranks, ranksPerNode ranks packed
// per node (for intra/inter-node cost distinction).
func NewWorld(size, ranksPerNode int, net NetworkModel) (*World, error) {
	if size <= 0 {
		return nil, errors.New("mpi: world size must be positive")
	}
	if ranksPerNode <= 0 {
		return nil, errors.New("mpi: ranks per node must be positive")
	}
	w := &World{
		size:         size,
		net:          net,
		ranksPerNode: ranksPerNode,
		boxes:        map[mailKey]chan message{},
	}
	w.gone = freshGone(size)
	return w, nil
}

func freshGone(size int) []chan struct{} {
	gone := make([]chan struct{}, size)
	for i := range gone {
		gone[i] = make(chan struct{})
	}
	return gone
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetFaultInjector attaches a fault injector to the fabric: sends then
// consult the "mpi.send:r<rank>" site per transmission attempt. A nil
// injector detaches.
func (w *World) SetFaultInjector(in *fault.Injector) {
	w.injMu.Lock()
	defer w.injMu.Unlock()
	w.inj = in
}

func (w *World) injector() *fault.Injector {
	w.injMu.Lock()
	defer w.injMu.Unlock()
	return w.inj
}

// SetTelemetry attaches a telemetry registry to the fabric: per-rank
// counters for sends, retransmits, lost messages, deadline failures,
// barriers and allreduces, plus a virtual-time send-latency histogram.
// Every series is labelled "r<rank>" and only written by that rank's
// goroutine, keeping the metrics deterministic. Nil detaches.
func (w *World) SetTelemetry(r *telemetry.Registry) {
	w.telMu.Lock()
	defer w.telMu.Unlock()
	w.tel = r
}

func (w *World) telemetry() *telemetry.Registry {
	w.telMu.Lock()
	defer w.telMu.Unlock()
	return w.tel
}

// label is the rank's telemetry label.
func (r *Rank) label() string { return fmt.Sprintf("r%d", r.rank) }

// RetransmitTimeoutSec is the virtual time a sender waits before
// retransmitting a dropped message (a reliable-transport timeout, far
// above the fabric latency). It is also the virtual time a blocked
// operation charges before failing with ErrDeadline when its peer has
// left the job.
func (w *World) RetransmitTimeoutSec() float64 {
	return 1000 * w.net.LatencySec
}

// resetRunState clears per-run communication state so a world can host
// consecutive runs (the chaos harness reuses worlds across episodes).
func (w *World) resetRunState() {
	w.mu.Lock()
	w.boxes = map[mailKey]chan message{}
	w.mu.Unlock()
	w.barMu.Lock()
	w.barCount = 0
	w.cur = nil
	w.departed = 0
	w.gone = freshGone(w.size)
	w.barMu.Unlock()
	w.reduceMu.Lock()
	w.reduceAcc = nil
	w.reduceResult = nil
	w.reduceMu.Unlock()
}

// Run executes body on every rank concurrently, joins all ranks, and
// returns every non-nil rank error combined with errors.Join (nil when
// all ranks succeed).
func (w *World) Run(body func(r *Rank) error) error {
	return w.RunContext(context.Background(), body)
}

// RunContext is Run with cancellation: the context is visible to every
// rank (Rank.Context) and unblocks the fabric's blocking operations —
// a canceled rank's pending Send/Recv/collective returns the context
// error instead of waiting for peers.
func (w *World) RunContext(ctx context.Context, body func(r *Rank) error) error {
	w.resetRunState()
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for i := 0; i < w.size; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer w.depart(rank)
			errs[rank] = body(&Rank{world: w, rank: rank, ctx: ctx})
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// depart marks a rank as having left the job (its body returned, with
// or without an error). Blocked peers observe the departure: a barrier
// that can no longer complete releases its waiters in a failed state.
func (w *World) depart(rank int) {
	w.barMu.Lock()
	w.departed++
	close(w.gone[rank])
	if w.cur != nil && w.barCount >= w.size-w.departed {
		rel := w.cur
		rel.failed = true
		w.barCount = 0
		w.cur = nil
		close(rel.ch)
	}
	w.barMu.Unlock()
}

// goneChan returns the channel that closes when the rank departs (nil —
// blocking forever in a select — for worlds built outside NewWorld).
func (w *World) goneChan(rank int) <-chan struct{} {
	w.barMu.Lock()
	defer w.barMu.Unlock()
	if rank < 0 || rank >= len(w.gone) {
		return nil
	}
	return w.gone[rank]
}

func (w *World) box(from, to, tag int) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := mailKey{from, to, tag}
	b, ok := w.boxes[k]
	if !ok {
		b = make(chan message, 64)
		w.boxes[k] = b
	}
	return b
}

func (w *World) sameNode(a, b int) bool {
	return a/w.ranksPerNode == b/w.ranksPerNode
}

// Rank is the per-goroutine communicator handle. Each rank owns a
// virtual clock which the caller advances for local (compute) time and
// which communication operations advance and synchronise.
type Rank struct {
	world *World
	rank  int
	now   float64
	ctx   context.Context
}

// Rank returns this rank's index.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Node returns the node index this rank is packed onto.
func (r *Rank) Node() int { return r.rank / r.world.ranksPerNode }

// Now returns this rank's virtual time.
func (r *Rank) Now() float64 { return r.now }

// Context returns the run context (context.Background for plain Run).
func (r *Rank) Context() context.Context {
	if r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// done returns the context's cancellation channel (nil, blocking
// forever in a select, when there is no cancelable context).
func (r *Rank) done() <-chan struct{} {
	if r.ctx == nil {
		return nil
	}
	return r.ctx.Done()
}

// AdvanceTo moves the rank's clock forward to t (no-op if in the past).
func (r *Rank) AdvanceTo(t float64) {
	if t > r.now {
		r.now = t
	}
}

// Advance moves the rank's clock forward by dt seconds of local work.
func (r *Rank) Advance(dt float64) {
	if dt < 0 {
		panic("mpi: negative advance")
	}
	r.now += dt
}

// deadlineErr charges the retransmit timeout to the rank's clock and
// builds the typed deadline error. Both failure paths (peer already
// departed; departure observed while waiting) share this, so the error
// text and the clock advance are identical regardless of real-time
// arrival order — a determinism requirement of the chaos harness.
func (r *Rank) deadlineErr(op string) error {
	r.Advance(r.world.RetransmitTimeoutSec())
	r.world.telemetry().Counter("synergy_mpi_deadlines_total", "rank", r.label()).Inc()
	return fmt.Errorf("mpi: rank %d: %s: %w", r.rank, op, ErrDeadline)
}

// Send delivers data to the destination rank under a tag. The send is
// buffered: it returns after the local injection cost. A send that
// blocks on a full mailbox whose owner has departed fails with
// ErrDeadline after one retransmit timeout of virtual time.
func (r *Rank) Send(to, tag int, data []float32) error {
	if to < 0 || to >= r.world.size {
		return fmt.Errorf("mpi: rank %d: send to invalid rank %d", r.rank, to)
	}
	if to == r.rank {
		return fmt.Errorf("mpi: rank %d: self-send not supported", r.rank)
	}
	buf := make([]float32, len(data))
	copy(buf, data)
	w := r.world
	inj := w.injector()
	tel := w.telemetry()
	lbl := r.label()
	site := fmt.Sprintf("%s:r%d", SiteSend, r.rank)
	cost := w.net.transferTime(4*len(data), w.sameNode(r.rank, to))
	t0 := r.now
	// delivered records a successful hand-off to the mailbox: the virtual
	// send latency (retransmits included) lands in the histogram at the
	// rank's own clock, so the series is single-writer and deterministic.
	delivered := func() error {
		tel.Counter("synergy_mpi_sends_total", "rank", lbl).Inc()
		tel.Histogram("synergy_mpi_send_seconds", telemetry.TimeBuckets, "rank", lbl).
			ObserveAt(r.now-t0, r.now)
		return nil
	}
	// Reliable transport with bounded retransmit: every attempt pays the
	// transfer cost plus any injected latency; a dropped attempt (an
	// injected error) additionally pays the retransmit timeout. When the
	// fault layer drops every attempt, the send fails.
	for attempt := 1; ; attempt++ {
		delay, err := inj.Check(site)
		r.now += cost + delay
		if err == nil {
			break
		}
		if attempt >= maxSendAttempts {
			tel.Counter("synergy_mpi_sends_lost_total", "rank", lbl).Inc()
			return fmt.Errorf("mpi: rank %d: send to %d: %w (%d attempts, last: %v)",
				r.rank, to, ErrMessageLost, attempt, err)
		}
		tel.Counter("synergy_mpi_send_retransmits_total", "rank", lbl).Inc()
		r.now += w.RetransmitTimeoutSec()
	}
	msg := message{data: buf, sentAt: r.now}
	box := w.box(r.rank, to, tag)
	// Fast path: buffered delivery. Blocking is rare (64-deep boxes) and
	// only sustained when the receiver is gone or the run is canceled.
	select {
	case box <- msg:
		return delivered()
	default:
	}
	select {
	case box <- msg:
		return delivered()
	case <-w.goneChan(to):
	case <-r.done():
		select {
		case box <- msg:
			return delivered()
		default:
			return fmt.Errorf("mpi: rank %d: send to %d canceled: %w", r.rank, to, r.ctx.Err())
		}
	}
	// The receiver departed. Drain-biased retry: if space opened
	// concurrently, delivery wins deterministically.
	select {
	case box <- msg:
		return delivered()
	default:
		return r.deadlineErr(fmt.Sprintf("send to %d", to))
	}
}

// Recv blocks until a message with the tag arrives from the source rank,
// copies it into data (lengths must match), and synchronises the virtual
// clock: the message cannot be consumed before its send completed. If
// the sender departs without a matching message in flight, Recv charges
// one retransmit timeout of virtual time and returns ErrDeadline
// instead of hanging.
func (r *Rank) Recv(from, tag int, data []float32) error {
	if from < 0 || from >= r.world.size {
		return fmt.Errorf("mpi: rank %d: recv from invalid rank %d", r.rank, from)
	}
	box := r.world.box(from, r.rank, tag)
	var msg message
	select {
	case msg = <-box:
	default:
		select {
		case msg = <-box:
		case <-r.world.goneChan(from):
			// The sender departed. Any message it sent before departing
			// happened-before the close of its gone channel, so one final
			// non-blocking drain deterministically finds it.
			select {
			case msg = <-box:
			default:
				return r.deadlineErr(fmt.Sprintf("recv from %d", from))
			}
		case <-r.done():
			select {
			case msg = <-box:
			default:
				return fmt.Errorf("mpi: rank %d: recv from %d canceled: %w", r.rank, from, r.ctx.Err())
			}
		}
	}
	if len(msg.data) != len(data) {
		return fmt.Errorf("mpi: rank %d: recv size %d, message has %d", r.rank, len(data), len(msg.data))
	}
	copy(data, msg.data)
	r.AdvanceTo(msg.sentAt)
	return nil
}

// SendRecv exchanges equal-size buffers with a partner (the halo
// exchange primitive).
func (r *Rank) SendRecv(partner, tag int, send, recv []float32) error {
	if err := r.Send(partner, tag, send); err != nil {
		return err
	}
	return r.Recv(partner, tag, recv)
}

// Barrier synchronises all ranks' clocks to the maximum plus one fabric
// latency, and returns the released time. If any rank has departed the
// barrier cannot complete: it charges one retransmit timeout and
// returns ErrDeadline.
func (r *Rank) Barrier() (float64, error) {
	t, err := r.world.rendezvous(r, nil, nil)
	if err == nil {
		r.world.telemetry().Counter("synergy_mpi_barriers_total", "rank", r.label()).Inc()
	}
	return t, err
}

// AllreduceSum sums the slice element-wise across all ranks; every rank
// receives the result in place. Clocks synchronise to the maximum plus
// the cost of a log2(P)-deep reduction tree. Mismatched slice lengths
// across ranks are an error (the offending rank fails; its peers then
// observe ErrDeadline at the rendezvous).
func (r *Rank) AllreduceSum(data []float64) error {
	w := r.world
	w.reduceMu.Lock()
	if w.reduceAcc == nil {
		w.reduceAcc = make([]float64, len(data))
	}
	if len(w.reduceAcc) != len(data) {
		n := len(w.reduceAcc)
		w.reduceMu.Unlock()
		return fmt.Errorf("mpi: rank %d: allreduce length %d, accumulator has %d", r.rank, len(data), n)
	}
	for i, v := range data {
		w.reduceAcc[i] += v
	}
	w.reduceMu.Unlock()

	_, err := w.rendezvous(r, func() {
		w.reduceMu.Lock()
		w.reduceResult = w.reduceAcc
		w.reduceAcc = nil
		w.reduceMu.Unlock()
	}, func() {
		w.reduceMu.Lock()
		copy(data, w.reduceResult)
		w.reduceMu.Unlock()
	})
	if err != nil {
		return err
	}

	depth := 0
	for p := 1; p < w.size; p *= 2 {
		depth++
	}
	r.Advance(float64(depth) * w.net.transferTime(8*len(data), false))
	w.telemetry().Counter("synergy_mpi_allreduces_total", "rank", r.label()).Inc()
	return nil
}

// rendezvous implements the reusable full-world barrier with
// virtual-clock max-synchronisation. last runs (under the barrier lock)
// when the final rank arrives; after runs on every rank once released.
//
// A rendezvous that can never complete — some rank already departed, or
// departs while others wait — fails on every participant with
// ErrDeadline after charging the retransmit timeout. Both orderings
// produce the identical clock advance and error, so the outcome is
// independent of real-time scheduling.
func (w *World) rendezvous(r *Rank, last, after func()) (float64, error) {
	w.barMu.Lock()
	if w.departed > 0 {
		w.barMu.Unlock()
		return r.now, r.deadlineErr("barrier")
	}
	if w.cur == nil {
		w.cur = &barRelease{ch: make(chan struct{})}
	}
	rel := w.cur
	w.barCount++
	if r.now > rel.max {
		rel.max = r.now
	}
	if w.barCount == w.size {
		if last != nil {
			last()
		}
		w.barCount = 0
		w.cur = nil
		close(rel.ch)
		w.barMu.Unlock()
	} else {
		w.barMu.Unlock()
		select {
		case <-rel.ch:
		case <-r.done():
			// Canceled while waiting: withdraw from the round if it has
			// not been released concurrently; otherwise honour the
			// release (deterministic tie-break toward completion).
			w.barMu.Lock()
			if w.cur == rel {
				w.barCount--
				w.barMu.Unlock()
				return r.now, fmt.Errorf("mpi: rank %d: barrier canceled: %w", r.rank, r.ctx.Err())
			}
			w.barMu.Unlock()
			<-rel.ch
		}
	}
	if rel.failed {
		return r.now, r.deadlineErr("barrier")
	}
	r.AdvanceTo(rel.max + w.net.LatencySec)
	if after != nil {
		after()
	}
	return r.now, nil
}
