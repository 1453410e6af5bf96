// Command synergy-lint runs the kernel IR static analyzer
// (internal/kernelir/analysis) over suite benchmarks and .kir assembly
// files: reaching definitions (uninitialized reads), dead stores / dead
// code / unused parameters, interval-based local-memory bounds and the
// static roofline classification against a device spec.
//
// With -opt, each kernel is additionally run through the IR optimizer
// (internal/kernelir/opt) and its static instruction-count delta is
// reported per pass; -diff also prints every rewrite with the analysis
// fact that licensed it. -opt cannot be combined with -json, whose
// schema is the pinned []analysis.Report.
//
// Targets are benchmark names or paths ending in .kir (assembly as
// printed by Kernel.Disassemble); with no targets the whole benchmark
// suite is linted. The exit status is 1 when any kernel has
// error-severity findings (or warnings under -strict), 2 on usage or
// load failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/analysis"
	"synergy/internal/kernelir/opt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and argv, so tests can pin the
// CLI behavior (including the -json schema) without a subprocess.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("synergy-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "v100", "device spec for the roofline pass ("+strings.Join(hw.BuiltinNames(), ", ")+", none)")
	asJSON := fs.Bool("json", false, "emit reports as a JSON array")
	strict := fs.Bool("strict", false, "treat warnings as errors for the exit status")
	quiet := fs.Bool("quiet", false, "only print kernels with findings")
	doOpt := fs.Bool("opt", false, "run the IR optimizer and report instruction-count deltas")
	doDiff := fs.Bool("diff", false, "with the optimizer, print every rewrite and its licensing fact (implies -opt)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *doDiff {
		*doOpt = true
	}
	if *doOpt && *asJSON {
		fmt.Fprintln(stderr, "synergy-lint: -opt cannot be combined with -json (the JSON schema is the plain report array)")
		return 2
	}

	var spec *hw.Spec
	if *device != "none" {
		s, err := hw.SpecByName(*device)
		if err != nil {
			fmt.Fprintf(stderr, "synergy-lint: %v\n", err)
			return 2
		}
		spec = s
	}

	kernels, err := benchsuite.Kernels(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "synergy-lint: %v\n", err)
		return 2
	}

	opts := analysis.Options{Spec: spec}
	reports := make([]*analysis.Report, 0, len(kernels))
	bad := false
	for _, k := range kernels {
		r := analysis.Analyze(k, opts)
		reports = append(reports, r)
		if !r.Clean() || (*strict && !r.Quiet()) {
			bad = true
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(stderr, "synergy-lint: %v\n", err)
			return 2
		}
	} else {
		for i, r := range reports {
			if *quiet && r.Quiet() && !*doOpt {
				continue
			}
			fmt.Fprint(stdout, r.Render())
			if *doOpt {
				renderOpt(stdout, kernels[i], *doDiff)
			}
		}
		if *doOpt {
			renderOptTotal(stdout, kernels)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// renderOpt prints one kernel's optimizer summary (and, with diff, the
// full justification log).
func renderOpt(w io.Writer, k *kernelir.Kernel, diff bool) {
	_, res := opt.CachedResult(k)
	if res.Err != nil {
		fmt.Fprintf(w, "  opt: failed safe: %v\n", res.Err)
		return
	}
	fmt.Fprintf(w, "  opt: %d -> %d instructions (%s)%s\n",
		res.Before, res.After, opt.PctChange(res.Before, res.After), res.PassSummary())
	if diff {
		for _, rw := range res.Rewrites {
			fmt.Fprintf(w, "    %-9s pc %3d: %s\n", rw.Pass, rw.PC, rw.Note)
		}
	}
}

// renderOptTotal prints the aggregate static delta across all targets.
func renderOptTotal(w io.Writer, kernels []*kernelir.Kernel) {
	before, after := 0, 0
	for _, k := range kernels {
		_, res := opt.CachedResult(k)
		if res.Err != nil {
			before += len(k.Body)
			after += len(k.Body)
			continue
		}
		before += res.Before
		after += res.After
	}
	fmt.Fprintf(w, "total: %d -> %d instructions (%s)\n", before, after, opt.PctChange(before, after))
}
