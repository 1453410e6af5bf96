// Package report regenerates the paper's tables and figures from the
// reproduction: every experiment of §8 (plus the Fig. 1–5 motivation
// material) has a builder returning structured data and a text renderer
// that prints the same rows/series the paper reports. The benchmark
// harness (bench_test.go) and the synergy-report tool both build on it.
package report

import (
	"fmt"
	"sort"
	"strings"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir/analysis"
	"synergy/internal/metrics"
	"synergy/internal/model"
	"synergy/internal/sweep"
)

// table is a minimal text-table writer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Fig1 describes the available frequencies of the device catalog (the
// paper's three characterised devices plus the fleet-model additions).
type Fig1 struct {
	Devices []Fig1Device
}

// Fig1Device is one device's frequency availability.
type Fig1Device struct {
	Name           string
	MemFreqMHz     int
	CoreConfigs    int
	MinMHz, MaxMHz int
	DefaultMHz     int // 0: auto (no default configuration)
}

// BuildFig1 gathers the Fig. 1 data. The rows are derived from the full
// hw catalog rather than a hard-coded device list, so a newly added
// spec shows up without touching the report layer.
func BuildFig1() Fig1 {
	var f Fig1
	for _, name := range hw.BuiltinNames() {
		s, err := hw.SpecByName(name)
		if err != nil {
			panic(err)
		}
		f.Devices = append(f.Devices, Fig1Device{
			Name:        s.Name,
			MemFreqMHz:  s.MemFreqMHz,
			CoreConfigs: len(s.CoreFreqsMHz),
			MinMHz:      s.MinCoreMHz(),
			MaxMHz:      s.MaxCoreMHz(),
			DefaultMHz:  s.DefaultCoreMHz,
		})
	}
	return f
}

// Render prints the Fig. 1 table.
func (f Fig1) Render() string {
	t := &table{header: []string{"Device", "MemMHz", "CoreConfigs", "CoreMin", "CoreMax", "Default"}}
	for _, d := range f.Devices {
		def := "auto"
		if d.DefaultMHz != 0 {
			def = fmt.Sprintf("%d", d.DefaultMHz)
		}
		t.addRow(d.Name, fmt.Sprintf("%d", d.MemFreqMHz), fmt.Sprintf("%d", d.CoreConfigs),
			fmt.Sprintf("%d", d.MinMHz), fmt.Sprintf("%d", d.MaxMHz), def)
	}
	return "Figure 1: available frequencies\n" + t.String()
}

// Characterization is one kernel's frequency sweep in the paper's
// normalised coordinates (Figs. 2, 7, 8).
type Characterization struct {
	Device    string
	Benchmark string
	Points    []metrics.CharPoint
	Front     []metrics.CharPoint
	// BestSavingPct is the deepest energy saving on the sweep, and
	// LossAtBestPct the performance loss there.
	BestSavingPct, LossAtBestPct float64
	// Roofline is the static analyzer's compute/memory classification of
	// the kernel on this device; it predicts the sweep's shape (memory-
	// bound kernels have deep, cheap savings above the knee).
	Roofline *analysis.Roofline
}

// BuildCharacterization sweeps one suite benchmark on a device through
// the shared sweep engine.
func BuildCharacterization(spec *hw.Spec, benchName string) (*Characterization, error) {
	b, err := benchsuite.ByName(benchName)
	if err != nil {
		return nil, err
	}
	sw, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		return nil, err
	}
	char := sw.Characterize()
	frontPts := sw.ParetoFront()
	base := sw.BaselinePoint()
	var front []metrics.CharPoint
	for _, p := range frontPts {
		front = append(front, metrics.CharPoint{
			FreqMHz:    p.FreqMHz,
			Speedup:    base.TimeSec / p.TimeSec,
			NormEnergy: p.EnergyJ / base.EnergyJ,
		})
	}
	minE, err := sw.Select(metrics.MinEnergy)
	if err != nil {
		return nil, err
	}
	rf, err := analysis.StaticRoofline(b.Kernel, spec)
	if err != nil {
		return nil, err
	}
	return &Characterization{
		Device:        spec.Name,
		Benchmark:     benchName,
		Points:        char,
		Front:         front,
		BestSavingPct: sw.EnergySavingPct(minE),
		LossAtBestPct: sw.PerfLossPct(minE),
		Roofline:      rf,
	}, nil
}

// Render prints a characterisation summary with a sampled series.
func (c *Characterization) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: max saving %.1f%% (perf loss %.1f%%), Pareto front %d points\n",
		c.Benchmark, c.Device, c.BestSavingPct, c.LossAtBestPct, len(c.Front))
	if c.Roofline != nil {
		fmt.Fprintf(&b, "  static roofline: %s (alpha %.3f, knee %d MHz)\n",
			c.Roofline.Label, c.Roofline.Alpha, c.Roofline.KneeMHz)
	}
	t := &table{header: []string{"FreqMHz", "Speedup", "NormEnergy"}}
	stride := len(c.Points)/16 + 1
	for i := 0; i < len(c.Points); i += stride {
		p := c.Points[i]
		t.addRow(fmt.Sprintf("%d", p.FreqMHz), fmt.Sprintf("%.3f", p.Speedup), fmt.Sprintf("%.3f", p.NormEnergy))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig2Benchmarks and Fig7Benchmarks name the kernels the paper plots.
var (
	Fig2Benchmarks = []string{"lin_reg_coeff", "median"}
	Fig7Benchmarks = []string{"matmul", "sobel3", "median", "lin_reg_coeff"}
)

// BuildFig2 characterises the two motivation kernels on the V100.
func BuildFig2() ([]*Characterization, error) {
	return buildChars(hw.V100(), Fig2Benchmarks)
}

// BuildFig7 characterises the four selected kernels on the V100.
func BuildFig7() ([]*Characterization, error) {
	return buildChars(hw.V100(), Fig7Benchmarks)
}

// BuildFig8 characterises the four selected kernels on the MI100.
func BuildFig8() ([]*Characterization, error) {
	return buildChars(hw.MI100(), Fig7Benchmarks)
}

func buildChars(spec *hw.Spec, names []string) ([]*Characterization, error) {
	out := make([]*Characterization, len(names))
	err := sweep.ForEach(len(names), func(i int) error {
		c, err := BuildCharacterization(spec, names[i])
		if err != nil {
			return err
		}
		out[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 is the Black-Scholes EDP/ED2P study.
type Fig4 struct {
	Device string
	// Series rows: frequency, EDP, ED2P (normalised to their minima).
	Freqs      []int
	EDP, ED2P  []float64
	MinEDPMHz  int
	MinED2PMHz int
	MaxPerfMHz int
	MinEnerMHz int
}

// BuildFig4 sweeps black_scholes and locates the product minima.
func BuildFig4() (*Fig4, error) {
	spec := hw.V100()
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		return nil, err
	}
	sw, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		return nil, err
	}
	f := &Fig4{Device: spec.Name}
	for _, p := range sw.Points {
		f.Freqs = append(f.Freqs, p.FreqMHz)
		f.EDP = append(f.EDP, p.EDP())
		f.ED2P = append(f.ED2P, p.ED2P())
	}
	edp, err := sw.Select(metrics.MinEDP)
	if err != nil {
		return nil, err
	}
	ed2p, err := sw.Select(metrics.MinED2P)
	if err != nil {
		return nil, err
	}
	mp, err := sw.Select(metrics.MaxPerf)
	if err != nil {
		return nil, err
	}
	me, err := sw.Select(metrics.MinEnergy)
	if err != nil {
		return nil, err
	}
	f.MinEDPMHz, f.MinED2PMHz = edp.FreqMHz, ed2p.FreqMHz
	f.MaxPerfMHz, f.MinEnerMHz = mp.FreqMHz, me.FreqMHz
	return f, nil
}

// Render prints the Fig. 4 summary.
func (f *Fig4) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Black-Scholes on %s\n", f.Device)
	fmt.Fprintf(&b, "  MIN_EDP at %d MHz, MIN_ED2P at %d MHz (energy optimum %d, perf optimum %d)\n",
		f.MinEDPMHz, f.MinED2PMHz, f.MinEnerMHz, f.MaxPerfMHz)
	t := &table{header: []string{"FreqMHz", "EDP", "ED2P"}}
	stride := len(f.Freqs)/16 + 1
	for i := 0; i < len(f.Freqs); i += stride {
		t.addRow(fmt.Sprintf("%d", f.Freqs[i]), fmt.Sprintf("%.4g", f.EDP[i]), fmt.Sprintf("%.4g", f.ED2P[i]))
	}
	b.WriteString(t.String())
	return b.String()
}

// Fig5 reports the ES_x / PL_x selections for Black-Scholes.
type Fig5 struct {
	Device string
	Rows   []Fig5Row
}

// Fig5Row is one metric's selected configuration.
type Fig5Row struct {
	Target    metrics.Target
	FreqMHz   int
	SavingPct float64 // energy saving vs default
	LossPct   float64 // time loss vs default
}

// BuildFig5 computes the ES/PL selections of Fig. 5.
func BuildFig5() (*Fig5, error) {
	spec := hw.V100()
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		return nil, err
	}
	sw, err := sweep.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		return nil, err
	}
	f := &Fig5{Device: spec.Name}
	targets := []metrics.Target{
		metrics.ES(25), metrics.ES(50), metrics.ES(75),
		metrics.PL(25), metrics.PL(50), metrics.PL(75),
	}
	for _, tgt := range targets {
		p, err := sw.Select(tgt)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, Fig5Row{
			Target:    tgt,
			FreqMHz:   p.FreqMHz,
			SavingPct: sw.EnergySavingPct(p),
			LossPct:   sw.PerfLossPct(p),
		})
	}
	return f, nil
}

// Render prints the Fig. 5 table.
func (f *Fig5) Render() string {
	t := &table{header: []string{"Metric", "FreqMHz", "EnergySaving%", "PerfLoss%"}}
	for _, r := range f.Rows {
		t.addRow(r.Target.String(), fmt.Sprintf("%d", r.FreqMHz),
			fmt.Sprintf("%.1f", r.SavingPct), fmt.Sprintf("%.1f", r.LossPct))
	}
	return fmt.Sprintf("Figure 5: energy metrics for Black-Scholes on %s\n%s", f.Device, t.String())
}

// Table1 lists the static features of the 23 benchmarks.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one benchmark's feature vector.
type Table1Row struct {
	Benchmark string
	Features  features.Vector
}

// BuildTable1 extracts every suite benchmark's features.
func BuildTable1() (*Table1, error) {
	var t1 Table1
	for _, b := range benchsuite.All() {
		v, err := features.Extract(b.Kernel)
		if err != nil {
			return nil, err
		}
		t1.Rows = append(t1.Rows, Table1Row{Benchmark: b.Name, Features: v})
	}
	return &t1, nil
}

// Render prints the feature table.
func (t1 *Table1) Render() string {
	header := append([]string{"Benchmark"}, features.Names...)
	t := &table{header: header}
	for _, r := range t1.Rows {
		cells := []string{r.Benchmark}
		for _, v := range r.Features.Slice() {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		t.addRow(cells...)
	}
	return "Table 1: static code features (per work-item)\n" + t.String()
}

// ModelEvaluation bundles the Fig. 9 / Table 2 outputs.
type ModelEvaluation struct {
	Device string
	Rows   []model.Table2Row
	Raw    []model.PredictionError
}

// BuildModelEvaluation trains on the micro-benchmarks and evaluates the
// frequency predictions over the 23-benchmark suite (§8.3). freqStride
// subsamples the training sweep (1 = full table).
func BuildModelEvaluation(spec *hw.Spec, freqStride int) (*ModelEvaluation, error) {
	ts, err := model.DefaultTrainingSet(spec, freqStride)
	if err != nil {
		return nil, err
	}
	var cases []model.BenchCase
	for _, b := range benchsuite.All() {
		cases = append(cases, model.BenchCase{Name: b.Name, Kernel: b.Kernel, Items: b.CharItems})
	}
	rows, raw, err := model.BuildTable2(spec, ts, cases, metrics.StandardTargets)
	if err != nil {
		return nil, err
	}
	return &ModelEvaluation{Device: spec.Name, Rows: rows, Raw: raw}, nil
}

// RenderTable2 prints the Table-2 layout (RMSE/MAPE per algorithm, best
// algorithm per objective).
func (m *ModelEvaluation) RenderTable2() string {
	header := []string{"Objective"}
	for _, a := range model.AllAlgos {
		header = append(header, a+" RMSE", a+" MAPE")
	}
	header = append(header, "Best")
	t := &table{header: header}
	for _, row := range m.Rows {
		cells := []string{row.Target.String()}
		for _, a := range model.AllAlgos {
			c, ok := row.Cells[a]
			if !ok || !c.Computed {
				cells = append(cells, "-", "-")
				continue
			}
			mape := fmt.Sprintf("%.4f", c.MAPE)
			if c.Skipped > 0 {
				// Zero-valued actual objectives have no percentage error;
				// surface how many were excluded from the mean.
				mape += fmt.Sprintf(" (skip %d)", c.Skipped)
			}
			cells = append(cells, fmt.Sprintf("%.4g", c.RMSE), mape)
		}
		cells = append(cells, row.Best)
		t.addRow(cells...)
	}
	return fmt.Sprintf("Table 2: frequency-prediction error on %s\n%s", m.Device, t.String())
}

// RenderFig9 prints the per-benchmark APEs for one target.
func (m *ModelEvaluation) RenderFig9(target metrics.Target) string {
	byBench := map[string]map[string]float64{}
	var algos []string
	seen := map[string]bool{}
	for _, e := range m.Raw {
		if e.Target != target {
			continue
		}
		if byBench[e.Bench] == nil {
			byBench[e.Bench] = map[string]float64{}
		}
		byBench[e.Bench][e.Algo] = e.APE
		if !seen[e.Algo] {
			seen[e.Algo] = true
			algos = append(algos, e.Algo)
		}
	}
	var benches []string
	for b := range byBench {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	t := &table{header: append([]string{"Benchmark"}, algos...)}
	for _, b := range benches {
		cells := []string{b}
		for _, a := range algos {
			cells = append(cells, fmt.Sprintf("%.4f", byBench[b][a]))
		}
		t.addRow(cells...)
	}
	return fmt.Sprintf("Figure 9 (%s): APE of predicted-optimal frequency\n%s", target, t.String())
}
