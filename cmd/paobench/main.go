// Command paobench measures the PAAF pipeline's hot paths with the
// memoization layers on and off and emits a machine-readable report
// (BENCH_PR10.json). With -compare it re-runs the scenarios and gates the
// result against a checked-in baseline, failing on >tolerance regressions in
// the machine-independent metrics (allocs/op, cache hit rates, the
// cached-vs-uncached speedup); add -gate-ns to also gate absolute wall-clock
// time on a quiet dedicated host.
//
// Usage:
//
//	paobench -out BENCH_PR10.json             # refresh the artifact
//	paobench -compare BENCH_PR10.json         # CI regression gate
//	paobench -cold                            # uncached variants only
//	paobench -eco-out BENCH_PR7.json          # ECO re-analysis scoping report
//
// -eco-out runs the eco_reanalysis scenario instead of the standard set: a
// single-instance ECO against a resident session versus a fresh full run,
// plus the dirty-class/cluster counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	scale := flag.Float64("scale", 0.01, "suite scale factor (must match the baseline's when comparing)")
	out := flag.String("out", "", "write the report JSON to this file (default stdout)")
	compare := flag.String("compare", "", "baseline report to gate the fresh run against")
	tol := flag.Float64("tolerance", 0.15, "relative regression tolerance for -compare")
	gateNs := flag.Bool("gate-ns", false, "also gate wall-clock ns/op (off by default: CI hosts vary)")
	ecoOut := flag.String("eco-out", "", "run the eco_reanalysis scenario only and write its report to this file")
	cold := flag.Bool("cold", false, "measure only the uncached (cold-path) variants; incompatible with -compare")
	quiet := flag.Bool("q", false, "suppress per-scenario progress lines")
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if *quiet {
		progress = nil
	}

	t0 := time.Now()
	_, tel, err := tf.Activate("paobench", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paobench:", err)
		return 1
	}
	defer tel.Close()
	defer func() {
		tel.RecordRun("bench", fmt.Sprintf("scale %g", *scale), telemetry.NewCorrID(),
			t0, time.Since(t0), nil)
	}()

	if *ecoOut != "" {
		rep, err := bench.MeasureECO(*scale, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paobench:", err)
			return 1
		}
		f, err := os.Create(*ecoOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paobench:", err)
			return 1
		}
		defer f.Close()
		if err := rep.Write(f); err != nil {
			fmt.Fprintln(os.Stderr, "paobench:", err)
			return 1
		}
		return 0
	}

	if *cold && *compare != "" {
		fmt.Fprintln(os.Stderr, "paobench: -cold reports have no cached metrics and cannot be gated; drop -compare")
		return 1
	}

	var base bench.Report
	if *compare != "" {
		var err error
		if base, err = bench.Load(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "paobench:", err)
			return 1
		}
		// A comparison at a different scale would be refused after minutes of
		// measurement; fail before running anything.
		if base.Scale != *scale {
			fmt.Fprintf(os.Stderr, "paobench: baseline %s was recorded at scale %g, this run uses %g; pass -scale %g\n",
				*compare, base.Scale, *scale, base.Scale)
			return 1
		}
	}

	measure := bench.Measure
	if *cold {
		measure = bench.MeasureCold
	}
	rep, err := measure(*scale, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paobench:", err)
		return 1
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paobench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rep.Write(w); err != nil {
		fmt.Fprintln(os.Stderr, "paobench:", err)
		return 1
	}

	if *compare != "" {
		if v := bench.Compare(base, rep, *tol, *gateNs); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "paobench: %d regression(s) vs %s:\n", len(v), *compare)
			for _, msg := range v {
				fmt.Fprintln(os.Stderr, "  -", msg)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "paobench: within %.0f%% of %s\n", *tol*100, *compare)
	}
	return 0
}
