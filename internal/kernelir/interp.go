package kernelir

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Args binds kernel parameters (by name) for execution.
type Args struct {
	F32     map[string][]float32
	I32     map[string][]int32
	ScalarI map[string]int64
	ScalarF map[string]float64
}

// Bound holds positionally-resolved parameter bindings: index i of each
// slice corresponds to k.Params[i]. It is the environment handed to a
// Runner, so compiled executors and the interpreter read parameters
// through the exact same resolution.
type Bound struct {
	BufF [][]float32
	BufI [][]int32
	ScaI []int64
	ScaF []float64
}

// Bind resolves named Args against the kernel's positional parameter
// list. All executors (interpreted and compiled) share this single
// binding step, so binding errors are byte-identical across them.
func Bind(k *Kernel, a Args) (*Bound, error) {
	n := len(k.Params)
	b := &Bound{
		BufF: make([][]float32, n),
		BufI: make([][]int32, n),
		ScaI: make([]int64, n),
		ScaF: make([]float64, n),
	}
	for i, p := range k.Params {
		switch {
		case p.IsBuffer && p.Type == F32:
			buf, ok := a.F32[p.Name]
			if !ok {
				return nil, fmt.Errorf("kernelir: %s: missing f32 buffer %q", k.Name, p.Name)
			}
			if len(buf) == 0 {
				return nil, fmt.Errorf("kernelir: %s: empty buffer %q", k.Name, p.Name)
			}
			b.BufF[i] = buf
		case p.IsBuffer && p.Type == I32:
			buf, ok := a.I32[p.Name]
			if !ok {
				return nil, fmt.Errorf("kernelir: %s: missing i32 buffer %q", k.Name, p.Name)
			}
			if len(buf) == 0 {
				return nil, fmt.Errorf("kernelir: %s: empty buffer %q", k.Name, p.Name)
			}
			b.BufI[i] = buf
		case p.Type == I32:
			v, ok := a.ScalarI[p.Name]
			if !ok {
				return nil, fmt.Errorf("kernelir: %s: missing int scalar %q", k.Name, p.Name)
			}
			b.ScaI[i] = v
		default:
			v, ok := a.ScalarF[p.Name]
			if !ok {
				return nil, fmt.Errorf("kernelir: %s: missing float scalar %q", k.Name, p.Name)
			}
			b.ScaF[i] = v
		}
	}
	return b, nil
}

// ClampIndex is where an access at index i of an n-element buffer
// lands: below 0 at element 0, at or past n at element n-1. Global and
// local accesses clamp through it on every executor.
func ClampIndex(i int64, n int) int {
	if i < 0 {
		return 0
	}
	if i >= int64(n) {
		return n - 1
	}
	return int(i)
}

// prepare runs the shared front half of every execution: validation, the
// item-count check and parameter binding. Keeping it in one place
// guarantees interpreted and compiled runs fail with identical errors.
func prepare(k *Kernel, a Args, items int) (*Bound, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if items <= 0 {
		return nil, fmt.Errorf("kernelir: %s: non-positive item count %d", k.Name, items)
	}
	return Bind(k, a)
}

// Execute runs the kernel for work-items [0, items), in parallel across
// the host CPUs. Work-items must write disjoint locations (as in the
// benchmark suite); the executors do not arbitrate data races.
// GlobalIDX equals the linear id and GlobalIDY is zero (1-D launch).
func Execute(k *Kernel, a Args, items int) error {
	return ExecuteGrid(k, a, items, 0)
}

// ExecuteGrid runs the kernel over a 2-D range: items work-items with
// row width nx, so GlobalIDX = id %% nx and GlobalIDY = id / nx. A width
// of zero (or >= items) degenerates to the 1-D semantics.
//
// Execution is dispatched to the installed Runner (normally the
// closure-threaded compiler in kernelir/compile) and falls back to the
// reference interpreter when none is installed. Both paths are bit-exact
// by contract; see SetRunner.
func ExecuteGrid(k *Kernel, a Args, items, nx int) error {
	env, err := prepare(k, a, items)
	if err != nil {
		return err
	}
	if r := ActiveRunner(); r != nil {
		return r.RunGrid(k, env, items, nx)
	}
	return interpretBound(k, env, items, nx, 0)
}

// Interpret runs the kernel on the reference tree-walking interpreter,
// bypassing any installed Runner. It is the differential-testing oracle
// compiled execution is checked against.
func Interpret(k *Kernel, a Args, items int) error {
	return InterpretGrid(k, a, items, 0)
}

// InterpretGrid is Interpret over a 2-D range (see ExecuteGrid).
func InterpretGrid(k *Kernel, a Args, items, nx int) error {
	return InterpretGridWorkers(k, a, items, nx, 0)
}

// InterpretGridWorkers is InterpretGrid with an explicit worker count
// (0 means GOMAXPROCS). workers=1 makes execution fully deterministic
// even for kernels whose work-items race on clamped stores, which is
// what the differential fuzzers compare under.
func InterpretGridWorkers(k *Kernel, a Args, items, nx, workers int) error {
	env, err := prepare(k, a, items)
	if err != nil {
		return err
	}
	return interpretBound(k, env, items, nx, workers)
}

// interpretBound is the interpreter's execution core over a resolved
// environment. workers <= 0 selects GOMAXPROCS.
func interpretBound(k *Kernel, env *Bound, items, nx, workers int) error {
	tree, err := BuildLoopTree(k.Body)
	if err != nil {
		return err
	}
	Partition(items, workers, func(lo, hi int) {
		ints := make([]int64, k.NumIntRegs)
		floats := make([]float64, k.NumFloatRegs)
		var local []float64
		if k.LocalF32 > 0 {
			local = make([]float64, k.LocalF32)
		}
		trips := make([]int64, len(k.Body))
		for gid := lo; gid < hi; gid++ {
			runItem(k, env, tree.match, trips, int64(gid), int64(nx), ints, floats, local)
		}
	})
	return nil
}

// Partition runs work-items [0, items) as contiguous chunks of
// ceil(items/workers), calling run(lo, hi) once per chunk, each on its
// own goroutine (a single chunk runs on the caller's), and returns when
// all are done. workers <= 0 selects GOMAXPROCS, and at most items
// workers run. It is the one work-item partition: every executor runs
// its chunks through it, so kernels whose items race on clamped stores
// resolve the collisions with the same worker geometry on every path.
func Partition(items, workers int, run func(lo, hi int)) {
	if items <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (items + workers - 1) / workers
	if chunk >= items {
		run(0, items)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < items; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, min(lo+chunk, items))
	}
	wg.Wait()
}

// Compute evaluates in on the interpreter over operand values: ints
// and floats (four registers each) hold the values of its A, B and C
// operands at indices 0-2, each in the file its slot reads, and the
// result lands at index 3 of the file in writes. in must read only
// registers: no parameter, global id, memory or control.
func (in Instr) Compute(ints []int64, floats []float64) {
	in.Dst, in.A, in.B, in.C = 3, 0, 1, 2
	k := Kernel{Body: []Instr{in}}
	runItem(&k, nil, nil, nil, 0, 0, ints, floats, nil)
}

// runItem interprets the kernel body for one work-item. trips holds the
// remaining trip count of each active repeat block at the pc of its
// begin instruction; a begin writes its entry before any end reads it,
// so one slice serves every item of a worker without a reset.
func runItem(k *Kernel, env *Bound, match []int, trips []int64, gid, nx int64, ints []int64, floats, local []float64) {
	body := k.Body
	for pc := 0; pc < len(body); pc++ {
		in := &body[pc]
		switch in.Op {
		case OpConstI:
			ints[in.Dst] = int64(in.Imm)
		case OpConstF:
			floats[in.Dst] = in.Imm
		case OpMoveI:
			ints[in.Dst] = ints[in.A]
		case OpMoveF:
			floats[in.Dst] = floats[in.A]
		case OpGlobalID:
			ints[in.Dst] = gid
		case OpGlobalIDX:
			if nx > 0 {
				ints[in.Dst] = gid % nx
			} else {
				ints[in.Dst] = gid
			}
		case OpGlobalIDY:
			if nx > 0 {
				ints[in.Dst] = gid / nx
			} else {
				ints[in.Dst] = 0
			}
		case OpParamI:
			ints[in.Dst] = env.ScaI[in.Buf]
		case OpParamF:
			floats[in.Dst] = env.ScaF[in.Buf]
		case OpCvtIF:
			floats[in.Dst] = float64(ints[in.A])
		case OpCvtFI:
			ints[in.Dst] = int64(floats[in.A])
		case OpAddI:
			ints[in.Dst] = ints[in.A] + ints[in.B]
		case OpSubI:
			ints[in.Dst] = ints[in.A] - ints[in.B]
		case OpMulI:
			ints[in.Dst] = ints[in.A] * ints[in.B]
		case OpDivI:
			if ints[in.B] == 0 {
				ints[in.Dst] = 0
			} else {
				ints[in.Dst] = ints[in.A] / ints[in.B]
			}
		case OpRemI:
			if ints[in.B] == 0 {
				ints[in.Dst] = 0
			} else {
				ints[in.Dst] = ints[in.A] % ints[in.B]
			}
		case OpMinI:
			ints[in.Dst] = min(ints[in.A], ints[in.B])
		case OpMaxI:
			ints[in.Dst] = max(ints[in.A], ints[in.B])
		case OpCmpLTI:
			ints[in.Dst] = b2i(ints[in.A] < ints[in.B])
		case OpCmpEQI:
			ints[in.Dst] = b2i(ints[in.A] == ints[in.B])
		case OpSelI:
			if ints[in.C] != 0 {
				ints[in.Dst] = ints[in.A]
			} else {
				ints[in.Dst] = ints[in.B]
			}
		case OpAndI:
			ints[in.Dst] = ints[in.A] & ints[in.B]
		case OpOrI:
			ints[in.Dst] = ints[in.A] | ints[in.B]
		case OpXorI:
			ints[in.Dst] = ints[in.A] ^ ints[in.B]
		case OpShlI:
			ints[in.Dst] = ints[in.A] << (uint64(ints[in.B]) & 63)
		case OpShrI:
			ints[in.Dst] = ints[in.A] >> (uint64(ints[in.B]) & 63)
		case OpAddF:
			floats[in.Dst] = floats[in.A] + floats[in.B]
		case OpSubF:
			floats[in.Dst] = floats[in.A] - floats[in.B]
		case OpMulF:
			floats[in.Dst] = floats[in.A] * floats[in.B]
		case OpDivF:
			floats[in.Dst] = floats[in.A] / floats[in.B]
		case OpMinF:
			floats[in.Dst] = math.Min(floats[in.A], floats[in.B])
		case OpMaxF:
			floats[in.Dst] = math.Max(floats[in.A], floats[in.B])
		case OpAbsF:
			floats[in.Dst] = math.Abs(floats[in.A])
		case OpNegF:
			floats[in.Dst] = -floats[in.A]
		case OpCmpLTF:
			ints[in.Dst] = b2i(floats[in.A] < floats[in.B])
		case OpSelF:
			if ints[in.C] != 0 {
				floats[in.Dst] = floats[in.A]
			} else {
				floats[in.Dst] = floats[in.B]
			}
		case OpSqrtF:
			floats[in.Dst] = math.Sqrt(floats[in.A])
		case OpExpF:
			floats[in.Dst] = math.Exp(floats[in.A])
		case OpLogF:
			floats[in.Dst] = math.Log(floats[in.A])
		case OpSinF:
			floats[in.Dst] = math.Sin(floats[in.A])
		case OpCosF:
			floats[in.Dst] = math.Cos(floats[in.A])
		case OpPowF:
			floats[in.Dst] = math.Pow(floats[in.A], floats[in.B])
		case OpErfF:
			floats[in.Dst] = math.Erf(floats[in.A])
		case OpLoadGF:
			buf := env.BufF[in.Buf]
			floats[in.Dst] = float64(buf[ClampIndex(ints[in.A], len(buf))])
		case OpStoreGF:
			buf := env.BufF[in.Buf]
			buf[ClampIndex(ints[in.A], len(buf))] = float32(floats[in.B])
		case OpLoadGI:
			buf := env.BufI[in.Buf]
			ints[in.Dst] = int64(buf[ClampIndex(ints[in.A], len(buf))])
		case OpStoreGI:
			buf := env.BufI[in.Buf]
			buf[ClampIndex(ints[in.A], len(buf))] = int32(ints[in.B])
		case OpLoadLF:
			floats[in.Dst] = local[ClampIndex(ints[in.A], len(local))]
		case OpStoreLF:
			local[ClampIndex(ints[in.A], len(local))] = floats[in.B]
		case OpRepeatBegin:
			trips[pc] = int64(in.Imm)
		case OpRepeatEnd:
			begin := match[pc]
			trips[begin]--
			if trips[begin] > 0 {
				pc = begin // loop back (pc++ lands on first body instr)
			}
		default:
			panic(fmt.Sprintf("kernelir: unhandled opcode %v", in.Op))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
