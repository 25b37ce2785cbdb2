// Command paorun runs the pin access analysis framework on a LEF/DEF pair
// and reports the results: per-unique-instance access points and patterns,
// plus the failed-pin summary. With -dump it lists every selected access
// point; -v prints the per-step durations.
//
// Observability: -metrics=text|json emits the run's counters, worker
// telemetry and span timing tree; -trace writes the span tree as JSON to a
// file; -cpuprofile/-memprofile write runtime/pprof profiles.
//
// With -distributed the analysis shards out across paoworker processes
// (consistent-hash placement, retry/hedge/relocate on worker loss) and the
// result is byte-identical to the single-process run.
//
// Usage:
//
//	paorun -lef design.lef -def design.def [-dump] [-nobca] [-k 3] [-workers 4]
//	       [-v] [-metrics text|json] [-trace out.json] [-cpuprofile cpu.pb.gz]
//	paorun -lef design.lef -def design.def -distributed \
//	       -workers-addr 127.0.0.1:8451,127.0.0.1:8452
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/report"
)

// splitAddrs parses the -workers-addr list, tolerating spaces and trailing
// commas.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	lefPath, defPath     string
	dump, verbose, noBCA bool
	k, workers           int
	distributed          bool
	workersAddr          string
	run                  *cliutil.RunFlags
	obs                  *obs.Flags
	out                  io.Writer // report destination; nil means os.Stdout
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.lefPath, "lef", "", "LEF file")
	fs.StringVar(&o.defPath, "def", "", "DEF file")
	fs.BoolVar(&o.dump, "dump", false, "list every selected access point")
	fs.BoolVar(&o.verbose, "v", false, "print per-step durations")
	fs.BoolVar(&o.noBCA, "nobca", false, "disable boundary conflict awareness")
	fs.IntVar(&o.k, "k", 3, "target access points per pin")
	fs.IntVar(&o.workers, "workers", 1, "analysis worker goroutines")
	fs.BoolVar(&o.distributed, "distributed", false, "shard the analysis across paoworker processes")
	fs.StringVar(&o.workersAddr, "workers-addr", "", "comma-separated paoworker addresses for -distributed")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterBatchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.lefPath == "" || o.defPath == "" {
		return nil, fmt.Errorf("-lef and -def are required")
	}
	if o.distributed && o.workersAddr == "" {
		return nil, fmt.Errorf("-distributed requires -workers-addr")
	}
	if !o.distributed && o.workersAddr != "" {
		return nil, fmt.Errorf("-workers-addr requires -distributed")
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paorun", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paorun:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paorun:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	out := opts.out
	if out == nil {
		out = os.Stdout
	}
	ob, err := opts.obs.Start("paorun")
	if err != nil {
		return err
	}
	// The report flushes on every return, after the partial summary below
	// when a cancellation or fail-fast abort ends the run: the
	// graceful-degradation contract.
	defer ob.End(&err)
	o := ob.Obs

	spParse := o.Root().Start("parse")
	d, err := cliutil.LoadDesign(cliutil.DesignSource{LEF: opts.lefPath, DEF: opts.defPath})
	if err != nil {
		return err
	}
	spParse.End()
	if err := ob.Listen(obs.Label{Name: "design", Value: d.Name}); err != nil {
		return err
	}

	cfg := pao.DefaultConfig()
	cfg.K = opts.k
	cfg.BCA = !opts.noBCA
	cfg.Workers = opts.workers
	cfg.FailFast = opts.run.FailFastSet()
	var (
		res    *pao.Result
		runErr error
	)
	if opts.distributed {
		// Shard the run across paoworker processes. The coordinator degrades
		// gracefully — unreachable or lost workers relocate shards and, with
		// nobody left, it computes shards locally — so a distributed run never
		// fails harder than a local one.
		c := &dist.Coordinator{
			Design:  d,
			Cfg:     cfg,
			Workers: splitAddrs(opts.workersAddr),
			Obs:     o,
		}
		res, runErr = c.Run(ctx)
	} else {
		a := pao.NewAnalyzer(d, cfg)
		a.Observe(o)
		res, runErr = a.RunContext(ctx)
	}

	t := report.New(fmt.Sprintf("Pin access summary for %s", d.Name),
		"#Inst", "#Unique", "#APs", "#OffTrack", "#Patterns", "#Pins", "#Failed")
	t.AddRow(len(d.Instances), res.Stats.NumUnique, res.Stats.TotalAPs,
		res.Stats.OffTrackAPs, res.Stats.PatternsBuilt, res.Stats.TotalPins, res.Stats.FailedPins)
	t.Render(out)
	if !res.Health.OK() {
		fmt.Fprintln(out, res.Health)
		for _, e := range res.Health.Errors() {
			fmt.Fprintln(out, " ", e)
		}
	}

	if opts.verbose {
		st := res.Stats.Steps
		fmt.Fprintln(out, "per-step durations:")
		fmt.Fprintf(out, "  step1 (AP generation):  %12v\n", st.Step1)
		fmt.Fprintf(out, "  step2 (patterns):       %12v\n", st.Step2)
		fmt.Fprintf(out, "  step1+2 wall:           %12v\n", st.Step12Wall)
		fmt.Fprintf(out, "  step3 (selection):      %12v\n", st.Step3)
		fmt.Fprintf(out, "  failed-pin check:       %12v\n", st.FailedPins)
		fmt.Fprintf(out, "  total:                  %12v\n", st.Total)
	}

	if opts.dump {
		for _, net := range d.Nets {
			for _, term := range net.Terms {
				ap := res.AccessPointFor(term.Inst, term.Pin)
				if ap == nil {
					fmt.Fprintf(out, "%-20s %-6s FAILED\n", term.Inst.Name, term.Pin.Name)
					continue
				}
				via := "-"
				if v := ap.Primary(); v != nil {
					via = v.Name
				}
				fmt.Fprintf(out, "%-20s %-6s M%d (%d,%d) x:%v y:%v via %s\n",
					term.Inst.Name, term.Pin.Name, ap.Layer, ap.Pos.X, ap.Pos.Y, ap.TypeX, ap.TypeY, via)
			}
		}
	}
	return runErr
}
