// Command synergy-opt runs the analysis-driven IR optimizer
// (internal/kernelir/opt) over suite benchmarks and .kir assembly
// files. For each target it prints the static instruction-count delta
// and per-pass rewrite tallies; -o writes the optimized kernel back out
// as .kir assembly (one file per kernel, named after the kernel), and
// -dump prints the optimized disassembly to stdout.
//
// Every optimization is translation-validated per pass (see the opt
// package); a kernel that fails validation is reported and left
// untouched, and the exit status is 1. Usage and load failures exit 2.
//
// Targets are benchmark names or paths ending in .kir; with no targets
// the whole 23-benchmark suite is optimized.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir/opt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("synergy-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("o", "", "directory to write optimized .kir files into (created if missing)")
	dump := fs.Bool("dump", false, "print the optimized disassembly to stdout")
	diff := fs.Bool("diff", false, "print every rewrite with the analysis fact that licensed it")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	kernels, err := benchsuite.Kernels(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "synergy-opt: %v\n", err)
		return 2
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "synergy-opt: %v\n", err)
			return 2
		}
	}

	failed := false
	before, after := 0, 0
	for _, k := range kernels {
		ko, res := opt.CachedResult(k)
		if res.Err != nil {
			fmt.Fprintf(stderr, "synergy-opt: %s: %v\n", k.Name, res.Err)
			failed = true
			continue
		}
		before += res.Before
		after += res.After
		fmt.Fprintf(stdout, "%s: %d -> %d instructions (%s), %d hoisted%s\n",
			k.Name, res.Before, res.After, opt.PctChange(res.Before, res.After), res.Hoisted, res.PassSummary())
		if *diff {
			for _, rw := range res.Rewrites {
				fmt.Fprintf(stdout, "  %-9s pc %3d: %s\n", rw.Pass, rw.PC, rw.Note)
			}
		}
		if *dump {
			fmt.Fprint(stdout, ko.Disassemble())
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, k.Name+".kir")
			if err := os.WriteFile(path, []byte(ko.Disassemble()), 0o644); err != nil {
				fmt.Fprintf(stderr, "synergy-opt: %v\n", err)
				return 2
			}
		}
	}
	if len(kernels) > 1 {
		fmt.Fprintf(stdout, "total: %d -> %d instructions (%s)\n", before, after, opt.PctChange(before, after))
	}
	if failed {
		return 1
	}
	return 0
}
