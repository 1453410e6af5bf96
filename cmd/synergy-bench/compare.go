package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile reads BENCHMARK.json from the working directory or
// the nearest directory above it that has one.
func readBenchmarkFile() (*benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var f benchmarkFile
			return &f, json.Unmarshal(data, &f)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// readResults reads the result files a run with -out wrote to dir and
// returns each metric's values over the runs, by workload.
func readResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.t[01].s*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		w, _, _ := strings.Cut(filepath.Base(f), ".t")
		if out[w] == nil {
			out[w] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[w][name] = append(out[w][name], m.Value)
		}
	}
	return out, nil
}

// compareDirs prints, for every workload and metric, each set's median
// and quartiles and, for end-to-end metrics, a verdict on set b against
// set a under the metric's bound.
func compareDirs(w io.Writer, a, b string) error {
	spec, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	ra, err := readResults(a)
	if err != nil {
		return err
	}
	rb, err := readResults(b)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\t%s median [q1, q3]\t%s median [q1, q3]\tchange\tbound\tverdict\n", a, b)
	for _, wl := range workloadNames() {
		for i, m := range append(spec.EndToEnd, spec.PerLayer...) {
			va, vb := ra[wl][m.Name], rb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			change, bound, v := "-", "-", "-"
			if qa[1] != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(qb[1]-qa[1])/math.Abs(qa[1]))
			}
			if i < len(spec.EndToEnd) {
				bound, v = fmt.Sprintf("%g%%", 100*m.Bound), verdict(qa, qb, m.Better, m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%s\t%s\n",
				wl, m.Name, m.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], change, bound, v)
		}
	}
	return tw.Flush()
}

// verdict judges set b against set a under a regression bound. It is
// unresolved when either set's quartile spread, as a share of its median,
// exceeds the bound; otherwise better or worse when the medians differ by
// more than the bound in the metric's direction, and unchanged if not.
func verdict(qa, qb [3]float64, better string, bound float64) string {
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if spread(qa) > bound || spread(qb) > bound {
		return "unresolved"
	}
	gain := (qb[1] - qa[1]) / math.Abs(qa[1])
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain > bound:
		return "better"
	case gain < -bound:
		return "worse"
	}
	return "unchanged"
}
