// Command paoworker serves pin-access analysis shards to a distributed
// paorun coordinator (paorun -distributed). It loads (or generates) the same
// design as the coordinator — the shared-volume model: both sides read the
// same inputs, only shard assignments and results cross the wire — and
// answers analyze/select shard requests until terminated.
//
// Endpoints (consumed by the coordinator, not meant for humans):
//
//	GET  /v1/ping     identity probe: design name, design hash, config
//	                  fingerprint — mismatched workers are excluded
//	POST /v1/analyze  run Step 1+2 for a set of unique-instance classes;
//	                  answers a partial result snapshot
//	POST /v1/select   run Step-3 selection for a set of row clusters
//
// The worker is stateless between shards: a worker killed mid-shard leaves
// nothing to clean up, and the coordinator relocates its shards to survivors.
// SIGTERM/SIGINT drain the listener and exit 0.
//
// Usage:
//
//	paoworker -case pao_test1 -scale 0.05 [-listen 127.0.0.1:8451]
//	paoworker -lef design.lef -def design.def [-listen :8451] [-k 3] [-nobca]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pao"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	caseName string
	scale    float64
	seed     int64

	lefPath, defPath string

	listen   string
	k        int
	noBCA    bool
	logLevel string

	run *cliutil.RunFlags
	obs *obs.Flags

	log io.Writer // operational log; nil means os.Stderr

	// onReady, when set (tests), is called with the bound listen address
	// after the worker starts accepting shards.
	onReady func(addr string)
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.caseName, "case", "", "suite testcase to generate and serve (e.g. pao_test1)")
	fs.Float64Var(&o.scale, "scale", 0.05, "testcase scale factor for -case")
	fs.Int64Var(&o.seed, "seed", 0, "testcase seed override for -case (0 keeps the spec's seed)")
	fs.StringVar(&o.lefPath, "lef", "", "LEF file (alternative to -case)")
	fs.StringVar(&o.defPath, "def", "", "DEF file (alternative to -case)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8451", "listen address (use :0 for an ephemeral port)")
	fs.IntVar(&o.k, "k", 3, "target access points per pin (must match the coordinator)")
	fs.BoolVar(&o.noBCA, "nobca", false, "disable boundary conflict awareness (must match the coordinator)")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	haveCase := o.caseName != ""
	haveFiles := o.lefPath != "" && o.defPath != ""
	if haveCase == haveFiles {
		return nil, fmt.Errorf("exactly one of -case or -lef/-def is required")
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paoworker", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paoworker:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paoworker:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

// loadDesign loads the design the flags name: -case (with -scale and -seed)
// or the -lef/-def pair.
func loadDesign(opts *options) (*db.Design, error) {
	return cliutil.LoadDesign(cliutil.DesignSource{
		Case: opts.caseName, Scale: opts.scale, Seed: opts.seed,
		LEF: opts.lefPath, DEF: opts.defPath,
	})
}

func run(opts *options) (err error) {
	ctx, stop := opts.run.Context()
	defer stop()
	logw := opts.log
	if logw == nil {
		logw = os.Stderr
	}
	logger, err := cliutil.NewLogger(logw, "paoworker", opts.logLevel)
	if err != nil {
		return err
	}
	ob, err := opts.obs.Start("paoworker")
	if err != nil {
		return err
	}
	defer ob.End(&err)

	d, err := loadDesign(opts)
	if err != nil {
		return err
	}
	cfg := pao.DefaultConfig()
	cfg.K = opts.k
	cfg.BCA = !opts.noBCA

	w := dist.NewWorker(d, cfg)
	w.Obs = ob.Obs

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: w.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("serving shards", append(cliutil.Build().Fields(),
		"design", d.Name,
		"design_hash", pao.DesignHash(d),
		"config", pao.ConfigFingerprint(cfg),
		"addr", ln.Addr().String(),
	)...)
	if opts.onReady != nil {
		opts.onReady(ln.Addr().String())
	}

	// Serve until SIGINT/SIGTERM (or -timeout), then drain on a fresh
	// context: the triggering signal already cancelled ctx. In-flight shards
	// that outlive the drain window are the coordinator's problem — it
	// relocates them, exactly as if this worker had died.
	select {
	case err := <-serveErr:
		return err // listener failed; not a clean shutdown
	case <-ctx.Done():
		logger.Info("shutdown requested, draining")
		sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sdCtx); err != nil {
			return err
		}
	}
	logger.Info("clean shutdown")
	return nil
}
