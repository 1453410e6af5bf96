// Package slurm simulates the job-scheduler layer of §7: a cluster of
// GPU nodes managed by a controller (slurmctld) that allocates nodes to
// jobs, tags capabilities through Generic RESources (GRES), and runs
// per-node prologue/epilogue plugin hooks around every job — including
// the paper's nvgpufreq plugin, which temporarily lowers the NVML
// privilege requirements for exclusive, GRES-tagged jobs and restores
// the node to a consistent performance state afterwards.
package slurm

import (
	"errors"
	"fmt"
	"sync"

	"synergy/internal/fault"
	"synergy/internal/hw"
	"synergy/internal/telemetry"
)

// ErrNodeFailed reports a node dying while a job held it.
var ErrNodeFailed = errors.New("slurm: node failed")

// Fault-injection sites exposed by this package, qualified per node
// ("slurm.node_fail:node1"). Prologue/epilogue sites fire once per
// (plugin, node) hook invocation; node_fail is consulted once per node
// as the job launches.
const (
	SitePrologue = "slurm.prologue"
	SiteEpilogue = "slurm.epilogue"
	SiteNodeFail = "slurm.node_fail"
)

func init() {
	fault.RegisterError("slurm.node_failed", ErrNodeFailed)
}

// GRES is a Generic RESource tag.
type GRES string

// GresNVGpuFreq is the tag enabling the frequency-scaling plugin on a
// node (and requesting it on a job).
const GresNVGpuFreq GRES = "nvgpufreq"

// Node is one cluster node with its GPUs and capability tags.
type Node struct {
	Name string
	GPUs []*hw.Device
	// Gres lists the node's capability tags.
	Gres map[GRES]bool
	// NVMLAvailable reports whether the NVML shared object can be
	// dlopen'd on this node (the plugin checks this).
	NVMLAvailable bool

	mu        sync.Mutex
	exclusive string         // job ID holding the node exclusively
	shared    map[string]int // job IDs sharing the node
	down      bool           // node failed; excluded from allocation
}

// NewNode builds a node with n GPUs of the given spec. NVML is marked
// available on NVIDIA nodes.
func NewNode(name string, spec *hw.Spec, nGPUs int, gres ...GRES) *Node {
	n := &Node{
		Name:          name,
		Gres:          map[GRES]bool{},
		NVMLAvailable: spec.Vendor == hw.NVIDIA,
		shared:        map[string]int{},
	}
	for i := 0; i < nGPUs; i++ {
		g := hw.NewDevice(spec)
		g.SetLabel(fmt.Sprintf("%s/gpu%d", name, i))
		n.GPUs = append(n.GPUs, g)
	}
	for _, g := range gres {
		n.Gres[g] = true
	}
	return n
}

// HasGres reports whether the node carries the tag.
func (n *Node) HasGres(g GRES) bool { return n.Gres[g] }

// Down reports whether the node is marked failed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// MarkDown takes the node out of service (a crash: running jobs fail,
// future allocations skip it). Epilogues cannot run on a dead node; its
// driver state is only cleaned up by Revive.
func (n *Node) MarkDown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
}

// Revive returns a failed node to service, as a reboot would: all
// allocations are cleared and every GPU comes back with driver-default
// clocks and cleared driver state (no privilege windows survive).
func (n *Node) Revive() {
	n.mu.Lock()
	n.down = false
	n.exclusive = ""
	n.shared = map[string]int{}
	n.mu.Unlock()
	for _, g := range n.GPUs {
		g.ResetAppClock()
		g.ResetDriverFlags()
	}
}

// allocate marks the node as used by the job; exclusive jobs require the
// node to be completely free, shared jobs only require no exclusive
// holder.
func (n *Node) allocate(jobID string, exclusive bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return fmt.Errorf("slurm: node %s is down", n.Name)
	}
	if n.exclusive != "" {
		return fmt.Errorf("slurm: node %s held exclusively by job %s", n.Name, n.exclusive)
	}
	if exclusive {
		if len(n.shared) > 0 {
			return fmt.Errorf("slurm: node %s has %d shared jobs", n.Name, len(n.shared))
		}
		n.exclusive = jobID
		return nil
	}
	n.shared[jobID]++
	return nil
}

func (n *Node) release(jobID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.exclusive == jobID {
		n.exclusive = ""
		return
	}
	if n.shared[jobID] > 0 {
		n.shared[jobID]--
		if n.shared[jobID] == 0 {
			delete(n.shared, jobID)
		}
	}
}

// ExclusiveHolder returns the job holding the node exclusively ("" if
// none) — used by plugins to verify exclusivity.
func (n *Node) ExclusiveHolder() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.exclusive
}

// Job is one batch submission.
type Job struct {
	Name string
	User string
	// NumNodes is the requested node count.
	NumNodes int
	// Exclusive requests whole-node allocation (--exclusive).
	Exclusive bool
	// Gres lists requested resources (--gres=nvgpufreq).
	Gres map[GRES]bool
	// MaxRequeues lets the async scheduler resubmit the job this many
	// times when it fails with ErrNodeFailed (SLURM's --requeue).
	MaxRequeues int
	// Run is the job script; it receives the allocation.
	Run func(ctx *Allocation) error
}

// Allocation is what a running job sees.
type Allocation struct {
	JobID string
	Job   *Job
	Nodes []*Node
}

// GPUs returns every GPU of the allocation in node order.
func (a *Allocation) GPUs() []*hw.Device {
	var out []*hw.Device
	for _, n := range a.Nodes {
		out = append(out, n.GPUs...)
	}
	return out
}

// Plugin is a prologue/epilogue extension (SLURM SPANK-style hook).
type Plugin interface {
	Name() string
	// Prologue runs on each allocated node before the job starts.
	// Returning an error fails the job.
	Prologue(ctx *Allocation, node *Node) error
	// Epilogue runs on each allocated node after the job ends (also on
	// failure).
	Epilogue(ctx *Allocation, node *Node) error
}

// JobResult reports accounting for a finished job.
type JobResult struct {
	JobID string
	// EnergyJ is the total GPU energy consumed during the job (the
	// scheduler's energy-accounting view).
	EnergyJ float64
	// Err is the job script's error, if any.
	Err error
}

// Cluster is the controller (slurmctld) plus the node inventory.
type Cluster struct {
	mu      sync.Mutex
	nodes   []*Node
	plugins []Plugin
	nextID  int
	queue   []*JobHandle // pending asynchronous jobs, FIFO
	inj     *fault.Injector
	tel     *telemetry.Registry
}

func jobIDString(n int) string { return fmt.Sprintf("job-%d", n) }

// NewCluster creates a cluster over the nodes.
func NewCluster(nodes ...*Node) *Cluster {
	return &Cluster{nodes: nodes}
}

// SetFaultInjector attaches a fault injector to the cluster and, for
// convenience, to every GPU of every node (so one injector scripts
// scheduler-level faults and device-level vendor-library faults
// together). A nil injector detaches everywhere.
func (c *Cluster) SetFaultInjector(in *fault.Injector) {
	c.mu.Lock()
	nodes := make([]*Node, len(c.nodes))
	copy(nodes, c.nodes)
	c.inj = in
	c.mu.Unlock()
	for _, n := range nodes {
		for _, g := range n.GPUs {
			g.SetFaultInjector(in)
		}
	}
}

func (c *Cluster) injector() *fault.Injector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj
}

// SetTelemetry attaches a telemetry registry to the cluster and, like
// SetFaultInjector, to every GPU of every node — so scheduler counters
// (jobs, requeues, node failures) and device-level metrics (kernels,
// clock sets, vendor calls) land in one registry. A nil registry
// detaches everywhere.
func (c *Cluster) SetTelemetry(r *telemetry.Registry) {
	c.mu.Lock()
	nodes := make([]*Node, len(c.nodes))
	copy(nodes, c.nodes)
	c.tel = r
	c.mu.Unlock()
	for _, n := range nodes {
		for _, g := range n.GPUs {
			g.SetTelemetry(r)
		}
	}
}

func (c *Cluster) telemetry() *telemetry.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tel
}

// RegisterPlugin appends a prologue/epilogue plugin.
func (c *Cluster) RegisterPlugin(p Plugin) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plugins = append(c.plugins, p)
}

// Nodes returns the node inventory.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// NodeInfo returns a node by name — the slurmctld lookup the plugin
// performs in its prologue.
func (c *Cluster) NodeInfo(name string) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return nil, fmt.Errorf("slurm: unknown node %q", name)
}

// Submit allocates nodes, runs prologues, the job script and epilogues,
// and returns accounting. It is synchronous (sbatch --wait); it fails
// immediately when the allocation cannot be satisfied right now — use
// SubmitAsync to queue instead.
func (c *Cluster) Submit(job *Job) (*JobResult, error) {
	if job.Run == nil {
		return nil, errors.New("slurm: job has no script")
	}
	if job.NumNodes <= 0 {
		return nil, errors.New("slurm: job requests no nodes")
	}
	c.mu.Lock()
	jobID, alloc, ok := c.tryAllocateLocked(job)
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("slurm: cannot allocate %d nodes for %s", job.NumNodes, job.Name)
	}
	return c.executeAllocated(job, jobID, alloc), nil
}

// executeAllocated runs prologues, the job script and epilogues on an
// already-made allocation, releases the nodes and returns accounting.
func (c *Cluster) executeAllocated(job *Job, jobID string, alloc []*Node) *JobResult {
	c.mu.Lock()
	plugins := make([]Plugin, len(c.plugins))
	copy(plugins, c.plugins)
	c.mu.Unlock()
	defer func() {
		for _, n := range alloc {
			n.release(jobID)
		}
	}()

	ctx := &Allocation{JobID: jobID, Job: job, Nodes: alloc}

	// Energy accounting window opens before the prologue.
	startE := make([]float64, 0, len(alloc)*4)
	for _, n := range alloc {
		for _, g := range n.GPUs {
			startE = append(startE, g.EnergyBetween(0, g.Now()))
		}
	}

	inj := c.injector()

	// Prologue chain; a failure aborts the job but still runs the
	// epilogues of the plugins that already ran, in reverse order.
	// Injected prologue faults model the hook process crashing.
	var ran []Plugin
	var prologErr error
	for _, p := range plugins {
		for _, n := range alloc {
			_, err := inj.Check(SitePrologue + ":" + n.Name)
			if err == nil {
				err = p.Prologue(ctx, n)
			}
			if err != nil {
				prologErr = fmt.Errorf("slurm: plugin %s prologue on %s: %w", p.Name(), n.Name, err)
				break
			}
		}
		if prologErr != nil {
			break
		}
		ran = append(ran, p)
	}

	// Node failure as the job launches: the node goes down, the job
	// fails, and only the surviving nodes see epilogues (a dead node's
	// cleanup happens at Revive, the reboot path).
	var jobErr error
	if prologErr == nil {
		for _, n := range alloc {
			if _, err := inj.Check(SiteNodeFail + ":" + n.Name); err != nil {
				n.MarkDown()
				c.telemetry().Counter("synergy_slurm_node_failures_total", "node", n.Name).Inc()
				jobErr = fmt.Errorf("slurm: node %s died during %s: %w", n.Name, jobID, ErrNodeFailed)
			}
		}
	}
	if prologErr == nil && jobErr == nil {
		jobErr = job.Run(ctx)
	} else if prologErr != nil {
		jobErr = prologErr
	}

	// Epilogues run on every surviving node regardless of how the job
	// ended; one hook failing (including injected epilogue faults) never
	// stops the remaining hooks or nodes. A crashed hook is re-launched
	// up to cleanupAttempts times (hooks are idempotent), so a transient
	// mid-epilogue fault cannot leave a reachable node dirty; only a
	// persistent failure is reported.
	for i := len(ran) - 1; i >= 0; i-- {
		for _, n := range alloc {
			if n.Down() {
				continue
			}
			var err error
			for attempt := 0; attempt < cleanupAttempts; attempt++ {
				_, err = inj.Check(SiteEpilogue + ":" + n.Name)
				if err == nil {
					err = ran[i].Epilogue(ctx, n)
				}
				if err == nil {
					break
				}
			}
			if err != nil && jobErr == nil {
				jobErr = fmt.Errorf("slurm: plugin %s epilogue on %s: %w", ran[i].Name(), n.Name, err)
			}
		}
	}

	res := &JobResult{JobID: jobID, Err: jobErr}
	i := 0
	for _, n := range alloc {
		for _, g := range n.GPUs {
			res.EnergyJ += g.EnergyBetween(0, g.Now()) - startE[i]
			i++
		}
	}
	outcome := "completed"
	if jobErr != nil {
		outcome = "failed"
	}
	c.telemetry().Counter("synergy_slurm_jobs_total", "result", outcome).Inc()
	return res
}
