// Command paoroute routes a LEF/DEF design on the track-graph substrate
// router, using either PAAF or ad-hoc pin access, reports the post-route DRC
// summary, and optionally writes the routed DEF and a Fig. 8-style SVG of the
// densest violation window.
//
// Observability: -metrics=text|json emits spans for parse, access analysis,
// routing and the post-route check, plus the analyzer's DRC counters;
// -trace, -cpuprofile and -memprofile behave as in paorun.
//
// Usage:
//
//	paoroute -lef d.lef -def d.def [-access paaf|adhoc] [-out routed.def] [-svg win.svg]
//	         [-metrics text|json] [-trace out.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/def"
	"repro/internal/guide"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/router"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	lefPath, defPath  string
	access, guidePath string
	outPath, svgPath  string
	run               *cliutil.RunFlags
	obs               *obs.Flags
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.lefPath, "lef", "", "LEF file")
	fs.StringVar(&o.defPath, "def", "", "DEF file")
	fs.StringVar(&o.access, "access", "paaf", "pin access mode: paaf or adhoc")
	fs.StringVar(&o.guidePath, "guide", "", "route-guide file (contest format; empty: unguided)")
	fs.StringVar(&o.outPath, "out", "", "write the routed DEF here")
	fs.StringVar(&o.svgPath, "svg", "", "write a violation-window SVG here")
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
	opts, err := parseFlags(flag.NewFlagSet("paoroute", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paoroute:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paoroute:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	ob, err := opts.obs.Start("paoroute")
	if err != nil {
		return err
	}
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

	pcfg := pao.DefaultConfig()
	pcfg.FailFast = opts.run.FailFastSet()
	a := pao.NewAnalyzer(d, pcfg)
	a.Observe(o)
	cfg := router.Config{}
	if opts.guidePath != "" {
		gf, err := os.Open(opts.guidePath)
		if err != nil {
			return err
		}
		guides, err := guide.Parse(gf, d.Tech)
		gf.Close()
		if err != nil {
			return err
		}
		cfg.Guides = make(map[string][]guide.Box, len(guides))
		for _, g := range guides {
			cfg.Guides[g.Net] = g.Boxes
		}
	}
	switch opts.access {
	case "paaf":
		cfg.Mode = router.AccessPAAF
		access, err := a.RunContext(ctx)
		if access != nil && !access.Health.OK() {
			fmt.Println("access analysis", access.Health)
		}
		if err != nil {
			return fmt.Errorf("access analysis: %w", err)
		}
		cfg.Access = access
	case "adhoc":
		cfg.Mode = router.AccessAdHoc
	default:
		return fmt.Errorf("unknown access mode %q", opts.access)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r, err := router.New(d, cfg)
	if err != nil {
		return err
	}
	spRoute := o.Root().Start("route")
	res := r.Route()
	spRoute.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	spCheck := o.Root().Start("check")
	router.Check(a, res)
	spCheck.End()

	t := report.New(fmt.Sprintf("Routing summary for %s (%s access)", d.Name, opts.access),
		"Routed", "Failed", "WL (um)", "#Vias", "#DRCs", "#Access DRCs")
	t.AddRow(res.Routed, res.Failed, res.WireLength/1000, len(res.Vias),
		len(res.Violations), res.AccessViolations)
	t.Render(os.Stdout)

	if opts.outPath != "" {
		f, err := os.Create(opts.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := def.WriteRouted(f, d, router.ExportRouting(d, res)); err != nil {
			return err
		}
		fmt.Println("routed DEF written to", opts.outPath)
	}
	if opts.svgPath != "" {
		win := render.ViolationWindow(d, res.Violations, 12000)
		c := render.NewCanvas(win)
		c.DrawDesign(d, 3)
		c.DrawRouting(res, 3)
		c.DrawViolations(res.Violations)
		f, err := os.Create(opts.svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.WriteSVG(f, d.Name+" ("+opts.access+" access)"); err != nil {
			return err
		}
		fmt.Println("SVG written to", opts.svgPath)
	}
	return nil
}
