// Command paoview renders one cell master from a LEF library as SVG, with
// the access points the framework would generate for a track-aligned
// placement — the per-cell view used to inspect library pin access quality
// (the paper's Figs. 2 and 9 style).
//
// Observability: -metrics=text|json emits the analysis span tree and DRC
// counters for the one-cell run; -trace, -cpuprofile and -memprofile behave
// as in paorun.
//
// Usage:
//
//	paoview -lef lib.lef -cell NAND2X1 -out nand2.svg [-orient N] [-metrics text|json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/lef"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/render"
	"repro/internal/tech"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	lefPath, cell, out, orientName string
	run                            *cliutil.RunFlags
	obs                            *obs.Flags
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.lefPath, "lef", "", "LEF file")
	fs.StringVar(&o.cell, "cell", "", "master name")
	fs.StringVar(&o.out, "out", "", "output SVG path")
	fs.StringVar(&o.orientName, "orient", "N", "placement orientation (N, S, FN, FS, ...)")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterBatchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.lefPath == "" || o.cell == "" || o.out == "" {
		return nil, fmt.Errorf("-lef, -cell and -out are required")
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paoview", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paoview:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paoview:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	lf, err := os.Open(opts.lefPath)
	if err != nil {
		return err
	}
	defer lf.Close()
	lib, err := lef.Parse(lf)
	if err != nil {
		return err
	}
	var master *db.Master
	for _, m := range lib.Masters {
		if m.Name == opts.cell {
			master = m
		}
	}
	if master == nil {
		return fmt.Errorf("master %q not in %s", opts.cell, opts.lefPath)
	}
	orient, err := geom.ParseOrient(opts.orientName)
	if err != nil {
		return err
	}

	// A one-cell design with track-aligned placement.
	d := db.NewDesign("paoview", lib.Tech)
	size := geom.Transform{Orient: orient, Size: master.Size}.PlacedSize()
	d.Die = geom.R(0, 0, size.X+4*lib.Tech.Metal(1).Pitch, size.Y+4*lib.Tech.Metal(1).Pitch)
	for _, l := range lib.Tech.Metals {
		extent := d.Die.XH
		if l.Dir == tech.Horizontal {
			extent = d.Die.YH
		}
		d.Tracks = append(d.Tracks, db.TrackPattern{
			Layer: l.Num, WireDir: l.Dir, Start: l.Pitch / 2,
			Num: int(extent / l.Pitch), Step: l.Pitch,
		})
	}
	if err := d.AddMaster(master); err != nil {
		return err
	}
	inst := &db.Instance{Name: "u", Master: master, Pos: geom.Pt(0, 0), Orient: orient}
	if err := d.AddInstance(inst); err != nil {
		return err
	}
	net := &db.Net{Name: "view"}
	for _, p := range master.SignalPins() {
		net.Terms = append(net.Terms, db.Term{Inst: inst, Pin: p})
	}
	d.Nets = []*db.Net{net}

	ob, err := opts.obs.Start("paoview")
	if err != nil {
		return err
	}
	defer ob.End(&err)
	if err := ob.Listen(obs.Label{Name: "cell", Value: opts.cell}); err != nil {
		return err
	}
	o := ob.Obs
	cfg := pao.DefaultConfig()
	cfg.FailFast = opts.run.FailFastSet()
	a := pao.NewAnalyzer(d, cfg)
	a.Observe(o)
	res, runErr := a.RunContext(ctx)
	if runErr != nil {
		return runErr
	}
	fmt.Printf("%s (%s): %d signal pins, %d access points, %d failed\n",
		opts.cell, orient, len(master.SignalPins()), res.Stats.TotalAPs, res.Stats.FailedPins)
	if !res.Health.OK() {
		fmt.Println(res.Health)
	}
	for _, p := range master.SignalPins() {
		ap := res.AccessPointFor(inst, p)
		if ap == nil {
			fmt.Printf("  %-6s FAILED\n", p.Name)
			continue
		}
		via := "planar"
		if v := ap.Primary(); v != nil {
			via = v.Name
		}
		fmt.Printf("  %-6s %v via %s\n", p.Name, ap, via)
	}

	c := render.NewCanvas(inst.BBox().Bloat(lib.Tech.Metal(1).Pitch))
	c.PixelsPerMicron = 400
	c.DrawDesign(d, 2)
	c.DrawAccess(d, res)
	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.WriteSVG(f, fmt.Sprintf("%s (%s) pin access", opts.cell, orient)); err != nil {
		return err
	}
	return nil
}
