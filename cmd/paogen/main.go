// Command paogen generates a synthetic benchmark testcase and writes it as a
// LEF/DEF pair.
//
// Observability: -metrics=text|json emits spans for generation, file
// writing, global routing and the heatmap; -trace, -cpuprofile and
// -memprofile behave as in paorun.
//
// Usage:
//
//	paogen -case pao_test1 [-scale 0.1] [-out dir] [-metrics text|json]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cliutil"
	"repro/internal/def"
	"repro/internal/guide"
	"repro/internal/lef"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/suite"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	name  string
	scale float64
	out   string
	run   *cliutil.RunFlags
	obs   *obs.Flags
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.name, "case", "pao_test1", "testcase name (pao_test1..pao_test10, aes_14nm)")
	fs.Float64Var(&o.scale, "scale", 1.0, "scale factor")
	fs.StringVar(&o.out, "out", ".", "output directory")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterBatchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paogen", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paogen:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paogen:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	spec, err := suite.ByName(opts.name)
	if err != nil {
		return err
	}
	ob, err := opts.obs.Start("paogen")
	if err != nil {
		return err
	}
	defer ob.End(&err)
	if err := ob.Listen(obs.Label{Name: "design", Value: spec.Name}); err != nil {
		return err
	}
	o := ob.Obs
	spGen := o.Root().Start("generate")
	d, err := suite.Generate(spec.Scale(opts.scale))
	if err != nil {
		return err
	}
	spGen.End()
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return err
	}
	lefPath := filepath.Join(opts.out, d.Name+".lef")
	defPath := filepath.Join(opts.out, d.Name+".def")

	spWrite := o.Root().Start("write")
	lf, err := os.Create(lefPath)
	if err != nil {
		return err
	}
	defer lf.Close()
	if err := lef.Write(lf, d.Tech, d.Masters); err != nil {
		return err
	}
	df, err := os.Create(defPath)
	if err != nil {
		return err
	}
	defer df.Close()
	if err := def.Write(df, d); err != nil {
		return err
	}
	spWrite.End()
	if err := ctx.Err(); err != nil {
		fmt.Printf("wrote %s and %s; cancelled before global routing\n", lefPath, defPath)
		return err
	}
	// Global-route and emit the contest-style guide file alongside.
	spGuide := o.Root().Start("globalroute")
	guidePath := filepath.Join(opts.out, d.Name+".guide")
	gr := guide.New(d, guide.Config{})
	guides := gr.Route()
	spGuide.End()
	gf, err := os.Create(guidePath)
	if err != nil {
		return err
	}
	defer gf.Close()
	if err := guide.Write(gf, guides, d.Tech); err != nil {
		return err
	}
	// Congestion heatmap of the global-routing solution.
	spHeat := o.Root().Start("heatmap")
	heatPath := filepath.Join(opts.out, d.Name+"_congestion.svg")
	hf, err := os.Create(heatPath)
	if err != nil {
		return err
	}
	defer hf.Close()
	_, _, gcell := gr.Dims()
	if err := render.CongestionHeatmap(hf, d.Die, gcell, gr.CellLoad,
		d.Name+" global-routing congestion"); err != nil {
		return err
	}
	spHeat.End()
	over, maxOver := gr.CongestionReport()
	fmt.Printf("wrote %s (%d masters), %s (%d instances, %d nets), %s and %s (overflow edges: %d, max %d)\n",
		lefPath, len(d.Masters), defPath, len(d.Instances), len(d.Nets), guidePath, heatPath, over, maxOver)
	if opts.run.FailFastSet() && over > 0 {
		return fmt.Errorf("global routing left %d overflow edges (-fail-fast)", over)
	}
	return nil
}
