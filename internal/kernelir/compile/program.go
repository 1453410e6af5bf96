package compile

import (
	"fmt"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
)

// machine is the mutable per-worker execution state a compiled program
// threads through its step closures: the two register files, the local
// scratch and the launch geometry. The parameter environment is copied
// in by value (slice headers) so the hot loop never chases the *Bound
// pointer.
type machine struct {
	ints   []int64
	floats []float64
	local  []float64
	gid    int64
	nx     int64
	bufF   [][]float32
	bufI   [][]int32
	scaI   []int64
	scaF   []float64
}

// step executes one compiled operation against the machine. Operand
// indices, immediates and trip counts are captured in the closure at
// compile time, so the per-step cost is a single indirect call with no
// opcode dispatch.
type step func(m *machine)

// Stats summarizes what the compiler did to a kernel.
type Stats struct {
	// Instrs is the instruction count of the source body.
	Instrs int
	// Steps is the number of step closures emitted (all nesting levels).
	Steps int
	// Hoisted counts loop-invariant hoist moves (an instruction that
	// cascades out of two nested loops counts twice).
	Hoisted int
	// Fused counts register moves folded into their producing
	// instruction.
	Fused int
}

// Program is a kernel lowered to closure-threaded form by Compile. It is
// immutable after compilation and safe for concurrent execution; every
// call binds fresh per-worker machine state.
type Program struct {
	k      *kernelir.Kernel
	steps  []step
	numI   int
	numF   int
	localN int
	stats  Stats
}

// Kernel returns the source kernel.
func (p *Program) Kernel() *kernelir.Kernel { return p.k }

// Stats returns the compilation statistics.
func (p *Program) Stats() Stats { return p.stats }

// Workload is features.KernelWorkload for the program's kernel: the
// device-model workload of a launch of the given size. The kernel
// compiled, so it is valid and extraction cannot fail.
func (p *Program) Workload(items int64) hw.Workload {
	w, _ := features.KernelWorkload(p.k, items)
	return w
}

// Execute mirrors kernelir.Execute on the compiled program.
func (p *Program) Execute(a kernelir.Args, items int) error {
	return p.ExecuteGrid(a, items, 0)
}

// ExecuteGrid mirrors kernelir.ExecuteGrid on the compiled program,
// including error parity: the item-count check and argument binding run
// in the same order with the same (kernelir-prefixed) messages, so a
// failing call reports byte-identical errors on both paths.
func (p *Program) ExecuteGrid(a kernelir.Args, items, nx int) error {
	return p.ExecuteGridWorkers(a, items, nx, 0)
}

// ExecuteGridWorkers is ExecuteGrid with an explicit worker count
// (0 means GOMAXPROCS), matching kernelir.InterpretGridWorkers so
// differential tests can pin both paths to the same worker geometry.
func (p *Program) ExecuteGridWorkers(a kernelir.Args, items, nx, workers int) error {
	if items <= 0 {
		return fmt.Errorf("kernelir: %s: non-positive item count %d", p.k.Name, items)
	}
	env, err := kernelir.Bind(p.k, a)
	if err != nil {
		return err
	}
	return p.run(env, items, nx, workers)
}

// run partitions work-items with the interpreter's kernelir.Partition,
// one machine per worker whose registers persist across that worker's
// items (the interpreter's observable register-carryover semantics).
func (p *Program) run(env *kernelir.Bound, items, nx, workers int) error {
	kernelir.Partition(items, workers, func(lo, hi int) { p.runChunk(env, lo, hi, nx) })
	return nil
}

func (p *Program) runChunk(env *kernelir.Bound, lo, hi, nx int) {
	m := &machine{
		ints:   make([]int64, p.numI),
		floats: make([]float64, p.numF),
		nx:     int64(nx),
		bufF:   env.BufF,
		bufI:   env.BufI,
		scaI:   env.ScaI,
		scaF:   env.ScaF,
	}
	if p.localN > 0 {
		m.local = make([]float64, p.localN)
	}
	steps := p.steps
	for gid := lo; gid < hi; gid++ {
		m.gid = int64(gid)
		for _, s := range steps {
			s(m)
		}
	}
}
