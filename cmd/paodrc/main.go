// Command paodrc runs the standalone design rule check over a LEF/DEF pair's
// fixed geometry (pins, obstructions, power shapes) and prints every
// violation.
//
// Observability: -metrics=text|json emits the DRC engine's counters (checks
// per rule kind, query volume) and the parse/check span tree; -trace,
// -cpuprofile and -memprofile behave as in paorun.
//
// Usage:
//
//	paodrc -lef design.lef -def design.def [-max 50] [-metrics text|json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/pao"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	lefPath, defPath string
	maxPrint         int
	run              *cliutil.RunFlags
	obs              *obs.Flags
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.lefPath, "lef", "", "LEF file")
	fs.StringVar(&o.defPath, "def", "", "DEF file")
	fs.IntVar(&o.maxPrint, "max", 50, "maximum violations to print")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterBatchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.lefPath == "" || o.defPath == "" {
		return nil, fmt.Errorf("-lef and -def are required")
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paodrc", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paodrc:", err)
		os.Exit(2)
	}
	nviol, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paodrc:", err)
	}
	os.Exit(exitCode(nviol, err))
}

// exitCode maps the run outcome to the process exit status: any violation or
// error is nonzero (cancellation distinguishes itself as 3), so CI can gate
// on a clean check.
func exitCode(nviol int, err error) int {
	if err != nil {
		return cliutil.ExitCode(err)
	}
	if nviol > 0 {
		return 1
	}
	return 0
}

// run returns the violation count so the caller decides the exit status after
// the observability report has been flushed.
func run(opts *options) (nviol int, err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	ob, err := opts.obs.Start("paodrc")
	if err != nil {
		return 0, err
	}
	defer ob.End(&err)
	o := ob.Obs

	spParse := o.Root().Start("parse")
	d, err := cliutil.LoadDesign(cliutil.DesignSource{LEF: opts.lefPath, DEF: opts.defPath})
	if err != nil {
		return 0, err
	}
	spParse.End()
	if err := ob.Listen(obs.Label{Name: "design", Value: d.Name}); err != nil {
		return 0, err
	}

	if problems := d.Validate(opts.maxPrint); len(problems) > 0 {
		fmt.Printf("%s: %d structural problems\n", d.Name, len(problems))
		for _, p := range problems {
			fmt.Println(" ", p)
		}
		if opts.run.FailFastSet() {
			return len(problems), fmt.Errorf("aborting on %d structural problems (-fail-fast)", len(problems))
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	spBuild := o.Root().Start("buildengine")
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	a.Observe(o)
	eng := a.GlobalEngine()
	spBuild.End()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	spCheck := o.Root().Start("checkall")
	vs := eng.CheckAll()
	spCheck.End()
	fmt.Printf("%s: %d shapes, %d violations\n", d.Name, eng.NumObjs(), len(vs))
	for i, v := range vs {
		if i >= opts.maxPrint {
			fmt.Printf("... and %d more\n", len(vs)-opts.maxPrint)
			break
		}
		fmt.Println(" ", v)
	}
	return len(vs), nil
}
