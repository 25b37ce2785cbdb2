// Command paoexp reproduces the paper's experiments on the synthetic
// ISPD-2018-style suite and prints the corresponding tables.
//
// Observability: -metrics=text|json emits the experiment span tree (one span
// per table row phase — the row's reported seconds ARE these span durations)
// plus the aggregated DRC and worker counters; -trace, -cpuprofile and
// -memprofile behave as in paorun.
//
// Usage:
//
//	paoexp -exp table1|1|2|3|14nm|ablate|all [-scale 0.05] [-cases pao_test1,pao_test5]
//	       [-metrics text|json] [-trace out.json]
//
// Scale proportionally shrinks every testcase (1.0 runs the full Table I
// sizes; expect minutes of runtime and several GB of memory at full scale).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/suite"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	expName string
	scale   float64
	cases   string
	run     *cliutil.RunFlags
	obs     *obs.Flags
	out     io.Writer // table destination; nil means os.Stdout
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.expName, "exp", "all", "experiment: table1, 1, 2, 3, 14nm, ablate, all")
	fs.Float64Var(&o.scale, "scale", 0.05, "testcase scale factor (1.0 = full Table I sizes)")
	fs.StringVar(&o.cases, "cases", "", "comma-separated testcase subset (default: all)")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterBatchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paoexp", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paoexp:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paoexp:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func selectedSpecs(cases string) ([]suite.Spec, error) {
	if cases == "" {
		return suite.Testcases, nil
	}
	var out []suite.Spec
	for _, name := range strings.Split(cases, ",") {
		s, err := suite.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	expName, scale := opts.expName, opts.scale
	out := opts.out
	if out == nil {
		out = os.Stdout
	}
	specs, err := selectedSpecs(opts.cases)
	if err != nil {
		return err
	}
	ob, err := opts.obs.Start("paoexp")
	if err != nil {
		return err
	}
	// Each experiment block below renders whatever rows it finished —
	// including the partial row the Run*Obs entry points return alongside a
	// ctx error — before returning, and the report flushes after it, so a
	// SIGTERM or -timeout mid-run still emits the partial tables.
	defer ob.End(&err)
	if err := ob.Listen(obs.Label{Name: "exp", Value: expName}); err != nil {
		return err
	}
	o := ob.Obs
	all := expName == "all"
	if all || expName == "table1" {
		rows, err := exp.RunTable1(scale)
		if err != nil {
			return err
		}
		exp.RenderTable1(out, rows)
		fmt.Fprintln(out)
	}
	if all || expName == "1" {
		var rows []exp.Exp1Row
		var expErr error
		for _, s := range specs {
			r, err := exp.RunExp1Obs(ctx, o, s, scale)
			if r.Name != "" {
				rows = append(rows, r)
			}
			if err != nil {
				expErr = err
				break
			}
		}
		exp.RenderExp1(out, rows)
		fmt.Fprintln(out)
		if expErr != nil {
			return expErr
		}
	}
	if all || expName == "2" {
		var rows []exp.Exp2Row
		var expErr error
		for _, s := range specs {
			r, err := exp.RunExp2Obs(ctx, o, s, scale)
			if r.Name != "" {
				rows = append(rows, r)
			}
			if err != nil {
				expErr = err
				break
			}
		}
		exp.RenderExp2(out, rows)
		fmt.Fprintln(out)
		if expErr != nil {
			return expErr
		}
	}
	if all || expName == "3" {
		rows, err := exp.RunExp3Obs(ctx, o, minF(scale, 0.02))
		exp.RenderExp3(out, rows)
		fmt.Fprintln(out)
		if err != nil {
			return err
		}
	}
	if all || expName == "14nm" {
		r, err := exp.RunAES14Obs(ctx, o, scale)
		if err != nil {
			if r.Insts > 0 {
				exp.RenderAES14(out, r)
				fmt.Fprintln(out)
			}
			return err
		}
		exp.RenderAES14(out, r)
		fmt.Fprintln(out)
	}
	if all || expName == "ablate" {
		rows, err := exp.RunAblationsObs(ctx, o, suite.Testcases[0], scale)
		exp.RenderAblations(out, "pao_test1", rows)
		if err != nil {
			return err
		}
	}
	if !all {
		switch expName {
		case "table1", "1", "2", "3", "14nm", "ablate":
		default:
			return fmt.Errorf("unknown experiment %q", expName)
		}
	}
	return nil
}

// minF caps the routing experiment's scale: the track-graph router is a
// substrate, not a contest router, and full-size mazes are out of scope.
func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
