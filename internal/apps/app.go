// Package apps implements the two real-world applications of the
// multi-node evaluation (§8.4) as SYCL+MPI programs on the SYnergy API:
// a mini CloverLeaf (2-D compressible Euler hydrodynamics on a staggered
// grid) and a mini MiniWeather (2-D atmospheric flow). Both decompose
// the domain in one dimension across ranks, run a fixed kernel sequence
// per timestep, exchange halo rows with neighbours and reduce global
// diagnostics — the structure that makes Fig. 10's weak-scaling energy
// curves.
package apps

import (
	"context"
	"fmt"
	"sort"

	"synergy/internal/core"
	"synergy/internal/fault"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
	"synergy/internal/mpi"
	"synergy/internal/power"
	"synergy/internal/resilience"
	"synergy/internal/sycl"
	"synergy/internal/telemetry"
)

// State is the per-rank simulation state: argument bindings for each
// kernel plus the fields whose boundary rows are exchanged every step.
type State struct {
	Nx, Ny int
	// Args maps kernel name to its bindings.
	Args map[string]kernelir.Args
	// Halo lists the fields (length Nx*Ny) to exchange with the north
	// and south neighbours each step.
	Halo [][]float32
}

// App is one multi-node application.
type App struct {
	Name string
	// Kernels is the per-timestep sequence, in submission order.
	Kernels []*kernelir.Kernel
	// NewState allocates a rank-local state for an nx × ny grid.
	NewState func(nx, ny int) *State
}

// FreqPlan maps kernel names to pinned core frequencies in MHz; kernels
// absent from the plan run at the device default. A nil plan is the
// baseline configuration.
type FreqPlan map[string]int

// PlanFromAdvisor builds the fine-grained per-kernel plan of §6.2: one
// predicted frequency per kernel for the chosen energy target.
func PlanFromAdvisor(app *App, adv core.FrequencyAdvisor, items int, target metrics.Target) (FreqPlan, error) {
	plan := FreqPlan{}
	for _, k := range app.Kernels {
		f, err := adv.AdviseCoreFreq(k, items, target)
		if err != nil {
			return nil, fmt.Errorf("apps: planning %s for %s: %w", target, k.Name, err)
		}
		plan[k.Name] = f
	}
	return plan, nil
}

// RunConfig parameterises one multi-node run.
type RunConfig struct {
	Spec        *hw.Spec
	Nodes       int
	GPUsPerNode int
	// LocalNx, LocalNy is the per-rank grid (held constant for weak
	// scaling).
	LocalNx, LocalNy int
	Steps            int
	Plan             FreqPlan
	Net              mpi.NetworkModel
	// FunctionalCap bounds interpreted work-items per launch (0 = all);
	// timing/energy always account for the full grid.
	FunctionalCap int
	// StateRows bounds the allocated grid rows per rank (0 = LocalNy):
	// the virtual launch still covers LocalNx × LocalNy items, but host
	// memory and interpretation are limited to the first StateRows rows
	// — the memory-side counterpart of FunctionalCap for cluster-scale
	// virtual grids.
	StateRows int
	// Devices optionally supplies the GPUs to run on (one per rank, in
	// rank order) — this is how a SLURM allocation's GPUs are used. When
	// nil, fresh devices are created from Spec.
	Devices []*hw.Device
	// User runs the job as this (non-root) identity; frequency scaling
	// then requires the nvgpufreq privilege window. Empty means a
	// privileged (single-node research) session.
	User string
	// Profile enables per-kernel statistics collection (merged across
	// ranks into RunResult.Kernels).
	Profile bool
	// Fault optionally attaches a fault injector to the whole run: the
	// MPI fabric and every device (supplied or fresh) consult it. Jobs
	// running under SLURM instead inherit the cluster's injector through
	// the allocated devices.
	Fault *fault.Injector
	// Health optionally attaches the per-device circuit-breaker registry:
	// each rank's queue consults the breaker named after its device label
	// before spending clock-set retries, and runs at default clocks while
	// the device is unhealthy (recorded as a DegradationEvent).
	Health *resilience.Registry
	// Telemetry optionally attaches a telemetry registry to the whole
	// run: the MPI fabric and every device (supplied or fresh) record
	// into it, the job and each rank get hierarchical spans
	// (job → rank → kernel → queue-wait/clock-set/execute), and on
	// success per-device energy/time gauges are published. Jobs running
	// under SLURM instead inherit the cluster's registry through the
	// allocated devices (fabric counters and spans then need an explicit
	// Telemetry here).
	Telemetry *telemetry.Registry
}

func (c *RunConfig) validate() error {
	if c.Spec == nil {
		return fmt.Errorf("apps: config needs a device spec")
	}
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 {
		return fmt.Errorf("apps: invalid cluster shape %dx%d", c.Nodes, c.GPUsPerNode)
	}
	if c.LocalNx < 4 || c.LocalNy < 4 {
		return fmt.Errorf("apps: local grid %dx%d too small", c.LocalNx, c.LocalNy)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("apps: need at least one step")
	}
	return nil
}

// RunResult is the outcome of one configuration — one point of Fig. 10.
type RunResult struct {
	App   string
	Ranks int
	Steps int
	// TimeSec is the application wall time (compute + communication; the
	// slowest rank).
	TimeSec float64
	// EnergyJ is the total GPU energy (the paper's energy metric counts
	// only the devices).
	EnergyJ float64
	// ClockSets counts application-clock changes across all GPUs (the
	// §4.4 overhead diagnostic).
	ClockSets int64
	// Kernels holds per-kernel statistics merged across ranks when
	// RunConfig.Profile is set (sorted by descending energy).
	Kernels []core.KernelStats
	// Degradations lists the submissions (across all ranks, in rank
	// order) that ran at current clocks because frequency control was
	// denied — the job completed, the energy saving was forfeited.
	Degradations []core.DegradationEvent
}

// Run executes the application on a simulated GPU cluster: one MPI rank
// per GPU, 1-D domain decomposition, per-kernel frequency scaling
// through the SYnergy queue.
func Run(app *App, cfg RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), app, cfg)
}

// RunContext is Run with cancellation: the context propagates into the
// MPI fabric (blocked ranks unblock with the context error) and stops
// further timesteps from being scheduled on every rank.
func RunContext(ctx context.Context, app *App, cfg RunConfig) (*RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ranks := cfg.Nodes * cfg.GPUsPerNode
	world, err := mpi.NewWorld(ranks, cfg.GPUsPerNode, cfg.Net)
	if err != nil {
		return nil, err
	}

	devices := cfg.Devices
	if devices == nil {
		devices = make([]*hw.Device, ranks)
		for i := range devices {
			devices[i] = hw.NewDevice(cfg.Spec)
			devices[i].SetLabel(fmt.Sprintf("rank%d", i))
		}
	}
	if len(devices) != ranks {
		return nil, fmt.Errorf("apps: %d devices supplied for %d ranks", len(devices), ranks)
	}
	if cfg.Fault != nil {
		world.SetFaultInjector(cfg.Fault)
		for _, d := range devices {
			d.SetFaultInjector(cfg.Fault)
		}
	}
	tel := cfg.Telemetry
	if tel != nil {
		world.SetTelemetry(tel)
		for _, d := range devices {
			d.SetTelemetry(tel)
		}
	}
	// Synchronise all devices to a common job-start epoch (devices that
	// ran earlier jobs are ahead in virtual time; the others idle until
	// the job launches everywhere).
	epoch := 0.0
	for _, d := range devices {
		if t := d.Now(); t > epoch {
			epoch = t
		}
	}
	startE := make([]float64, ranks)
	startSets := make([]int64, ranks)
	for i, d := range devices {
		if dt := epoch - d.Now(); dt > 0 {
			d.AdvanceIdle(dt)
		}
		startE[i] = d.EnergyBetween(0, d.Now())
		startSets[i] = d.ClockSetCount()
	}
	times := make([]float64, ranks)
	profiles := make([][]core.KernelStats, ranks)
	degraded := make([][]core.DegradationEvent, ranks)
	items := cfg.LocalNx * cfg.LocalNy

	// The job span opens at the common epoch and closes at the slowest
	// rank's finish; each rank's span nests under it on the device-label
	// track, and kernel spans nest under the rank (see core.Queue). A
	// failed run leaves the spans un-ended, which drops them from the
	// canonical span output — exactly like the run's other results.
	var jobSpan *telemetry.SpanHandle
	if tel != nil {
		jobSpan = tel.StartSpan("job", app.Name, "job", epoch, nil)
	}

	err = world.RunContext(ctx, func(r *mpi.Rank) error {
		dev := devices[r.Rank()]
		var pm power.Manager
		var err error
		if cfg.User == "" {
			pm, err = power.NewPrivilegedManager(dev)
		} else {
			pm, err = power.NewManager(dev, cfg.User, false)
		}
		if err != nil {
			return err
		}
		label := dev.Label()
		if label == "" {
			label = fmt.Sprintf("rank%d", r.Rank())
		}
		// Device time may not start at zero when the scheduler hands us
		// a device that ran earlier jobs.
		r.AdvanceTo(dev.Now())
		q := core.NewQueue(sycl.WrapDevice(dev), pm)
		if cfg.Health != nil {
			q.SetBreaker(cfg.Health.Breaker(label))
		}
		var rankSpan *telemetry.SpanHandle
		if tel != nil {
			rankSpan = tel.StartSpan(label, fmt.Sprintf("rank %d", r.Rank()), "rank", r.Now(), jobSpan)
			q.SetSpanParent(rankSpan)
		}
		if cfg.Profile {
			q.EnableProfiling()
		}
		stateNy := cfg.LocalNy
		if cfg.StateRows > 0 && cfg.StateRows < stateNy {
			stateNy = cfg.StateRows
		}
		// Interpretation must stay within the allocated state.
		funcCap := cfg.FunctionalCap
		if stateNy < cfg.LocalNy {
			if limit := cfg.LocalNx * stateNy; funcCap == 0 || funcCap > limit {
				funcCap = limit
			}
		}
		if funcCap > 0 {
			q.SetFunctionalCap(funcCap)
		}
		st := app.NewState(cfg.LocalNx, stateNy)

		for step := 0; step < cfg.Steps; step++ {
			if err := r.Context().Err(); err != nil {
				return fmt.Errorf("apps: %s: rank %d canceled before step %d: %w", app.Name, r.Rank(), step, err)
			}
			for _, k := range app.Kernels {
				args, ok := st.Args[k.Name]
				if !ok {
					return fmt.Errorf("apps: %s: no bindings for kernel %s", app.Name, k.Name)
				}
				cg := func(h *sycl.Handler) { h.ParallelFor(items, k, args) }
				var ev *sycl.Event
				if f := cfg.Plan[k.Name]; f > 0 {
					ev, err = q.SubmitWithFreq(0, f, cg)
				} else {
					ev, err = q.Submit(cg)
				}
				if err != nil {
					return err
				}
				if err := ev.Wait(); err != nil {
					return err
				}
			}
			// The rank's clock follows the device through the step's
			// kernels...
			r.AdvanceTo(dev.Now())
			// ...then pays for the halo exchange...
			if err := exchangeHalos(r, st, step); err != nil {
				return err
			}
			// ...and a small global diagnostic reduction.
			diag := []float64{1, float64(step)}
			if err := r.AllreduceSum(diag); err != nil {
				return err
			}
			// The device idles while the host communicates.
			if gap := r.Now() - dev.Now(); gap > 0 {
				dev.AdvanceIdle(gap)
			}
		}
		if _, err := r.Barrier(); err != nil {
			return err
		}
		times[r.Rank()] = r.Now()
		rankSpan.End(r.Now())
		if cfg.Profile {
			profiles[r.Rank()] = q.Profile()
		}
		degraded[r.Rank()] = q.Degradations()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RunResult{App: app.Name, Ranks: ranks, Steps: cfg.Steps}
	for i, d := range devices {
		if dt := times[i] - epoch; dt > res.TimeSec {
			res.TimeSec = dt
		}
		energy := d.EnergyBetween(0, d.Now()) - startE[i]
		res.EnergyJ += energy
		res.ClockSets += d.ClockSetCount() - startSets[i]
		if tel != nil {
			label := d.Label()
			if label == "" {
				label = fmt.Sprintf("rank%d", i)
			}
			tel.Gauge("synergy_device_energy_joules", "device", label).Set(energy)
			tel.Gauge("synergy_device_time_seconds", "device", label).Set(times[i] - epoch)
		}
	}
	jobSpan.End(epoch + res.TimeSec)
	if cfg.Profile {
		res.Kernels = mergeKernelStats(profiles)
	}
	for _, d := range degraded {
		res.Degradations = append(res.Degradations, d...)
	}
	return res, nil
}

// mergeKernelStats sums per-rank kernel statistics by kernel name.
func mergeKernelStats(profiles [][]core.KernelStats) []core.KernelStats {
	byName := map[string]*core.KernelStats{}
	var order []string
	for _, prof := range profiles {
		for _, s := range prof {
			agg, ok := byName[s.Name]
			if !ok {
				agg = &core.KernelStats{Name: s.Name, FreqLaunches: map[int]int{}}
				byName[s.Name] = agg
				order = append(order, s.Name)
			}
			agg.Launches += s.Launches
			agg.TimeSec += s.TimeSec
			agg.EnergyJ += s.EnergyJ
			for f, n := range s.FreqLaunches {
				agg.FreqLaunches[f] += n
			}
		}
	}
	out := make([]core.KernelStats, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyJ != out[j].EnergyJ {
			return out[i].EnergyJ > out[j].EnergyJ
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// exchangeHalos swaps boundary rows with the 1-D neighbours: the last
// interior row goes south, the first interior row goes north; ghost rows
// (row 0 and row ny-1) receive.
func exchangeHalos(r *mpi.Rank, st *State, step int) error {
	nx, ny := st.Nx, st.Ny
	for fi, field := range st.Halo {
		// The tag identifies (step, field); the (from, to) pair already
		// disambiguates the two directions across one boundary.
		tag := step*len(st.Halo) + fi
		south := r.Rank() + 1
		north := r.Rank() - 1
		// Exchange with south neighbour.
		if south < r.Size() {
			send := field[(ny-2)*nx : (ny-1)*nx]
			recv := make([]float32, nx)
			if err := r.SendRecv(south, tag, send, recv); err != nil {
				return err
			}
			copy(field[(ny-1)*nx:], recv)
		}
		// Exchange with north neighbour.
		if north >= 0 {
			send := field[nx : 2*nx]
			recv := make([]float32, nx)
			if err := r.SendRecv(north, tag, send, recv); err != nil {
				return err
			}
			copy(field[:nx], recv)
		}
	}
	return nil
}
