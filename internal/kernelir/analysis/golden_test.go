package analysis_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/analysis"
)

func mustAssemble(t *testing.T, text string) *kernelir.Kernel {
	t.Helper()
	k, err := kernelir.Assemble(text)
	if err != nil {
		t.Fatalf("Assemble: %v\n%s", err, text)
	}
	return k
}

// diagKey reduces a diagnostic to the fields golden tests pin.
type diagKey struct {
	Pass string
	Sev  analysis.Severity
	PC   int
}

func keysOf(r *analysis.Report) []diagKey {
	out := make([]diagKey, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		out[i] = diagKey{d.Pass, d.Severity, d.PC}
	}
	return out
}

func wantKeys(t *testing.T, r *analysis.Report, want []diagKey) {
	t.Helper()
	got := keysOf(r)
	if len(got) != len(want) {
		t.Fatalf("diagnostics = %v, want %v\nreport:\n%s", got, want, r.Render())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d = %v, want %v\nreport:\n%s", i, got[i], want[i], r.Render())
		}
	}
}

// A hand-built kernel whose opcode lies outside the operand table gets
// one validate diagnostic naming the pc and the opcode, and no dataflow
// pass runs over it.
func TestAnalyzeReportsUnknownOpcode(t *testing.T) {
	for _, op := range []kernelir.Op{99, kernelir.OpRepeatEnd + 1, -1} {
		k := &kernelir.Kernel{
			Name:       "bad",
			Body:       []kernelir.Instr{{Op: kernelir.OpConstI, Dst: 0}, {Op: op}},
			NumIntRegs: 1,
		}
		r := analysis.Analyze(k, analysis.Options{Spec: hw.V100()})
		wantKeys(t, r, []diagKey{{"validate", analysis.Error, -1}})
		if want := fmt.Sprintf("instr 1: unknown opcode %d", int(op)); !strings.Contains(r.Diagnostics[0].Message, want) {
			t.Errorf("opcode %d: diagnostic %q does not say %q", int(op), r.Diagnostics[0].Message, want)
		}
	}
}

func TestGoldenUninitRead(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel uninit(write f32[out]) {
  f1 = add.f f0, f2
  i0 = gid
  st.g.f out[i0], f1
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{
		{"uninit", analysis.Error, 0}, // f0
		{"uninit", analysis.Error, 0}, // f2
	})
	d := r.Diagnostics[0]
	if d.Line != "f1 = add.f f0, f2" {
		t.Errorf("diagnostic line = %q", d.Line)
	}
	if !strings.Contains(d.Message, "f0") || !strings.Contains(d.Message, "before any write") {
		t.Errorf("diagnostic message = %q", d.Message)
	}
	if r.Clean() {
		t.Error("report with uninitialized reads counts as clean")
	}
}

func TestGoldenDeadStore(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel dead(read f32[in], write f32[out]) {
  i0 = gid
  f0 = ld.g.f in[i0]
  f1 = mul.f f0, f0
  f2 = add.f f0, f0
  st.g.f out[i0], f2
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{{"dead-store", analysis.Warning, 2}})
	d := r.Diagnostics[0]
	if d.Line != "f1 = mul.f f0, f0" || !strings.Contains(d.Message, "f1") {
		t.Errorf("diagnostic = %+v", d)
	}
	if !r.Clean() || r.Quiet() {
		t.Errorf("dead store should be a warning: clean=%v quiet=%v", r.Clean(), r.Quiet())
	}
}

func TestGoldenUnusedParam(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel unused(read f32[in], write f32[out], i32 n) {
  i0 = gid
  f0 = ld.g.f in[i0]
  st.g.f out[i0], f0
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{{"unused-param", analysis.Warning, -1}})
	if !strings.Contains(r.Diagnostics[0].Message, `"n"`) {
		t.Errorf("message = %q", r.Diagnostics[0].Message)
	}
}

func TestGoldenLocalOOB(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel oob(write f32[out]) {
  local f32[4]
  i0 = const.i 6
  f0 = const.f 1
  st.l.f local[i0], f0
  f1 = ld.l.f local[i0]
  i1 = gid
  st.g.f out[i1], f1
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{
		{"bounds", analysis.Error, 2},
		{"bounds", analysis.Error, 3},
	})
	d := r.Diagnostics[0]
	if d.Line != "st.l.f local[i0], f0" {
		t.Errorf("line = %q", d.Line)
	}
	if !strings.Contains(d.Message, "[6, 6]") || !strings.Contains(d.Message, "outside [0, 4)") {
		t.Errorf("message = %q", d.Message)
	}
}

func TestGoldenLocalMaybeOOBIsWarning(t *testing.T) {
	t.Parallel()
	// gid is unbounded, so the access may clamp — defined behavior, so a
	// warning rather than an error.
	k := mustAssemble(t, `kernel maybe(write f32[out]) {
  local f32[4]
  i0 = gid
  f0 = const.f 1
  st.l.f local[i0], f0
  f1 = ld.l.f local[i0]
  st.g.f out[i0], f1
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{
		{"bounds", analysis.Warning, 2},
		{"bounds", analysis.Warning, 3},
	})
}

// TestGoldenBoundsProofs pins the interval transfer functions that prove
// common index idioms in bounds: modulo, bit-mask and min/max clamping
// all produce quiet reports.
func TestGoldenBoundsProofs(t *testing.T) {
	t.Parallel()
	for _, src := range []string{
		`kernel mod(write f32[out]) {
  local f32[4]
  i0 = gid
  i1 = const.i 4
  i2 = rem.i i0, i1
  f0 = const.f 1
  st.l.f local[i2], f0
  f1 = ld.l.f local[i2]
  st.g.f out[i0], f1
}
`,
		`kernel mask(write f32[out]) {
  local f32[4]
  i0 = gid
  i1 = const.i 3
  i2 = and.i i0, i1
  f0 = const.f 1
  st.l.f local[i2], f0
  f1 = ld.l.f local[i2]
  st.g.f out[i0], f1
}
`,
		`kernel clamp(write f32[out]) {
  local f32[4]
  i0 = gid
  i1 = const.i 3
  i2 = min.i i0, i1
  i3 = const.i 0
  i2 = max.i i2, i3
  f0 = const.f 1
  st.l.f local[i2], f0
  f1 = ld.l.f local[i2]
  st.g.f out[i0], f1
}
`,
	} {
		k := mustAssemble(t, src)
		if r := analysis.Analyze(k, analysis.Options{}); !r.Quiet() {
			t.Errorf("%s: expected quiet report, got:\n%s", k.Name, r.Render())
		}
	}
}

// TestGoldenLoopCarriedIndex pins the loop fixpoint: an index that
// advances every iteration is widened, so a local access through it is a
// may-warning (not silently accepted, not a definite error).
func TestGoldenLoopCarriedIndex(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel walkidx(write f32[out]) {
  local f32[8]
  i0 = const.i 0
  i1 = const.i 1
  f0 = const.f 2
  repeat 16 {
    st.l.f local[i0], f0
    i0 = add.i i0, i1
  }
  i2 = gid
  st.g.f out[i2], f0
}
`)
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{{"bounds", analysis.Warning, 4}})
}

func TestGoldenZeroTripBody(t *testing.T) {
	t.Parallel()
	// Assemble rejects repeat 0, so build the kernel directly: the
	// analyzer must stay total, flag the Validate failure and the dead
	// body, and must NOT let the dead def of f0 reach the store.
	k := &kernelir.Kernel{
		Name:         "zerotrip",
		Params:       []kernelir.Param{{Name: "out", IsBuffer: true, Type: kernelir.F32, Access: kernelir.Write}},
		NumIntRegs:   1,
		NumFloatRegs: 1,
		Body: []kernelir.Instr{
			{Op: kernelir.OpRepeatBegin, Imm: 0},         // 0
			{Op: kernelir.OpConstF, Dst: 0, Imm: 1},      // 1: dead def
			{Op: kernelir.OpRepeatEnd},                   // 2
			{Op: kernelir.OpGlobalID, Dst: 0},            // 3
			{Op: kernelir.OpStoreGF, A: 0, B: 0, Buf: 0}, // 4: reads f0 -> uninit
		},
	}
	r := analysis.Analyze(k, analysis.Options{})
	wantKeys(t, r, []diagKey{
		{"validate", analysis.Error, -1},
		{"dead-code", analysis.Warning, 0},
		{"uninit", analysis.Error, 4},
	})
}

func TestGoldenRooflineLabels(t *testing.T) {
	t.Parallel()
	spec, err := hw.SpecByName("v100")
	if err != nil {
		t.Fatal(err)
	}
	hot := mustAssemble(t, `kernel hot(read f32[in], write f32[out]) {
  i0 = gid
  f0 = ld.g.f in[i0]
  repeat 64 {
    f0 = mul.f f0, f0
    f0 = add.f f0, f0
  }
  st.g.f out[i0], f0
}
`)
	stream := mustAssemble(t, `kernel stream(read f32[in], write f32[out]) {
  i0 = gid
  f0 = ld.g.f in[i0]
  st.g.f out[i0], f0
}
`)
	rHot := analysis.Analyze(hot, analysis.Options{Spec: spec})
	if rHot.Roofline == nil || rHot.Roofline.Label != analysis.ComputeBound {
		t.Fatalf("hot roofline = %+v, want compute-bound", rHot.Roofline)
	}
	if rHot.Roofline.KneeMHz != spec.MaxCoreMHz() {
		t.Errorf("hot knee = %d, want fmax %d", rHot.Roofline.KneeMHz, spec.MaxCoreMHz())
	}
	rStream := analysis.Analyze(stream, analysis.Options{Spec: spec})
	if rStream.Roofline == nil || rStream.Roofline.Label != analysis.MemoryBound {
		t.Fatalf("stream roofline = %+v, want memory-bound", rStream.Roofline)
	}
	if rStream.Roofline.KneeMHz != spec.MinCoreMHz() {
		t.Errorf("stream knee = %d, want fmin %d", rStream.Roofline.KneeMHz, spec.MinCoreMHz())
	}
	if rStream.Roofline.Alpha > 0.1 {
		t.Errorf("stream alpha = %v, want ~0", rStream.Roofline.Alpha)
	}
	// The roofline verdict also appears as an info diagnostic.
	found := false
	for _, d := range rHot.Diagnostics {
		if d.Pass == "roofline" && d.Severity == analysis.Info &&
			strings.Contains(d.Message, "compute-bound") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing roofline info diagnostic:\n%s", rHot.Render())
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	t.Parallel()
	k := mustAssemble(t, `kernel uninit(write f32[out]) {
  f1 = add.f f0, f2
  i0 = gid
  st.g.f out[i0], f1
}
`)
	spec, err := hw.SpecByName("v100")
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Analyze(k, analysis.Options{Spec: spec})
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"severity": "error"`) &&
		!strings.Contains(string(blob), `"severity":"error"`) {
		t.Errorf("JSON lacks named severity: %s", blob)
	}
	var back analysis.Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back.Diagnostics) != len(r.Diagnostics) || back.Kernel != r.Kernel {
		t.Fatalf("round trip changed report: %+v vs %+v", back, r)
	}
	for i := range back.Diagnostics {
		if back.Diagnostics[i] != r.Diagnostics[i] {
			t.Fatalf("diagnostic %d changed: %+v vs %+v", i, back.Diagnostics[i], r.Diagnostics[i])
		}
	}
}
