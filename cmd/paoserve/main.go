// Command paoserve runs the pin access oracle as a resident multi-design
// HTTP/JSON server: optionally load (or generate) an initial design, then
// serve a registry where designs are added and removed at runtime, each
// behind its own fault-isolation bulkhead (breaker, admission queue,
// per-tenant rate limits, snapshot). Requests carry an optional tenant ID
// (X-Tenant-Id header or ?tenant=) for per-tenant fairness, and a design
// scope (?design= or X-Design) when more than one design is resident.
//
// The initial design is an ordinary registration under its own name:
// -snapshot sets its snapshot file, and -snapshot-interval periodically
// rewrites the snapshot of every ready design that has one, this one
// included.
//
// Endpoints:
//
//	POST   /v1/designs             register a design (suite case, inline
//	                               LEF/DEF, or uploaded snapshot; 201/400/409/413/422)
//	GET    /v1/designs             list designs with state and health
//	GET    /v1/designs/{id}        one design's state
//	DELETE /v1/designs/{id}        unregister (waits out in-flight queries)
//	POST   /v1/designs/{id}/evict  snapshot + release a design's result now
//	GET    /v1/access?inst=NAME    access pattern for one instance (200; degraded
//	                               classes answer "degraded": true, never 500;
//	                               404 unknown; 429/503 shed; 202 while warming)
//	POST   /v1/access/batch        N instances in one request, admission-charged
//	                               per instance
//	GET    /v1/access/explain      decision audit for one pin (?inst=&pin=)
//	GET    /v1/stats               analysis stats and health summary
//	POST   /v1/reanalyze           start one background re-analysis
//	POST   /v1/eco                 incremental ECO transaction
//	GET    /healthz                liveness + per-design health (always 200)
//	GET    /readyz                 process readiness; ?design= for one design's
//	GET    /metricz                metrics registries as JSON
//	GET    /metrics                Prometheus text exposition (design/tenant labels)
//	GET    /debug/slowlog          recent slow queries (?design= when ambiguous)
//	GET    /version                build info + per-design hashes
//
// Exit codes: 0 clean shutdown (including SIGTERM/SIGINT drain), 1 startup or
// serve failure, 2 flag errors, 3 cancelled during initial analysis.
//
// Usage:
//
//	paoserve -case pao_test1 -scale 0.05 [-addr :8347] [-snapshot oracle.snap]
//	paoserve -lef design.lef -def design.def [-snapshot oracle.snap]
//	paoserve -addr :8347 -snapshot-dir /var/lib/pao -max-resident 4   # empty start
//	         [-rate 100 -burst 20] [-max-inflight 8 -queue 64]
//	         [-request-timeout 2s] [-snapshot-interval 5m] [-drain-timeout 10s]
//	         [-breaker-threshold 3 -breaker-cooldown 30s] [-warm-wait 2s]
//	         [-max-upload 33554432] [-k 3] [-workers 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/serve"
)

// options holds the parsed command line; parseFlags keeps it testable with
// an injected FlagSet and argument list.
type options struct {
	caseName string
	scale    float64
	seed     int64

	lefPath, defPath string

	addr             string
	snapshotPath     string
	snapshotInterval time.Duration
	snapshotDir      string
	maxResident      int
	warmWait         time.Duration
	maxUpload        int64
	maxInFlight      int
	queue            int
	rate             float64
	burst            int
	requestTimeout   time.Duration
	drainTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	traceSample   float64
	slowlogSize   int
	slowThreshold time.Duration
	logLevel      string

	k, workers int
	run        *cliutil.RunFlags
	obs        *obs.Flags

	log io.Writer // operational log; nil means os.Stderr

	// onReady, when set (tests), is called with the started manager after it
	// begins listening.
	onReady func(m *serve.Manager)
	// paoFaultHook, when set (tests), is installed as every design's pipeline
	// fault hook.
	paoFaultHook func(site, detail string)
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.caseName, "case", "", "suite testcase to generate and serve initially (e.g. pao_test1)")
	fs.Float64Var(&o.scale, "scale", 0.05, "testcase scale factor for -case")
	fs.Int64Var(&o.seed, "seed", 0, "testcase seed override for -case (0 keeps the spec's seed)")
	fs.StringVar(&o.lefPath, "lef", "", "LEF file (alternative to -case)")
	fs.StringVar(&o.defPath, "def", "", "DEF file (alternative to -case)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&o.snapshotPath, "snapshot", "", "snapshot file for the initial design (empty: derive from -snapshot-dir)")
	fs.DurationVar(&o.snapshotInterval, "snapshot-interval", 0, "periodic snapshot interval for every ready design, the -snapshot one included (0: only on shutdown/evict)")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory for per-design eviction snapshots (empty: evicted designs recompute)")
	fs.IntVar(&o.maxResident, "max-resident", 0, "resident-design budget; coldest design evicts past it (0: unlimited)")
	fs.DurationVar(&o.warmWait, "warm-wait", 2*time.Second, "how long a query blocks for a lazy warm restart before 202 (0: immediate 202)")
	fs.Int64Var(&o.maxUpload, "max-upload", 32<<20, "max POST /v1/designs body bytes")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "max concurrently executing queries per design (0: NumCPU)")
	fs.IntVar(&o.queue, "queue", 64, "max queries waiting for a slot before shedding 503 (-1: unbounded)")
	fs.Float64Var(&o.rate, "rate", 0, "per-tenant query rate limit per second (0 disables; excess sheds 429)")
	fs.IntVar(&o.burst, "burst", 1, "rate limiter burst size")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 5*time.Second, "per-request deadline incl. queue wait (0 disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 3, "consecutive failures that trip a design's re-analysis breaker")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 30*time.Second, "breaker open duration before a probe")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of queries that record a span-tree exemplar in /debug/slowlog (0..1)")
	fs.IntVar(&o.slowlogSize, "slowlog", 128, "slow-query log capacity per design")
	fs.DurationVar(&o.slowThreshold, "slow-threshold", 100*time.Millisecond, "latency at which a query enters the slow log")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.IntVar(&o.k, "k", 3, "target access points per pin")
	fs.IntVar(&o.workers, "workers", 0, "analysis worker goroutines (0: one)")
	o.run = cliutil.RegisterRunFlags(fs)
	o.obs = obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	haveCase := o.caseName != ""
	haveFiles := o.lefPath != "" || o.defPath != ""
	// No initial design is fine — the registry starts empty and designs
	// arrive via POST /v1/designs — but mixed or half-specified sources are
	// still an error.
	if haveCase && haveFiles {
		return nil, fmt.Errorf("-case and -lef/-def are mutually exclusive")
	}
	if haveFiles && (o.lefPath == "" || o.defPath == "") {
		return nil, fmt.Errorf("-lef and -def must both be provided")
	}
	if o.snapshotPath != "" && !haveCase && !haveFiles {
		return nil, fmt.Errorf("-snapshot requires an initial design (-case or -lef/-def)")
	}
	if o.traceSample < 0 || o.traceSample > 1 {
		return nil, fmt.Errorf("-trace-sample %v out of range [0,1]", o.traceSample)
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(flag.NewFlagSet("paoserve", flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "paoserve:", err)
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paoserve:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

// hasInitialDesign reports whether the flags name a design to load at boot.
func (o *options) hasInitialDesign() bool {
	return o.caseName != "" || o.lefPath != ""
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
	logger, err := cliutil.NewLogger(logw, "paoserve", opts.logLevel)
	if err != nil {
		return err
	}
	ob, err := opts.obs.Start("paoserve")
	if err != nil {
		return err
	}
	defer ob.End(&err)

	paoCfg := pao.DefaultConfig()
	paoCfg.K = opts.k
	paoCfg.Workers = opts.workers
	paoCfg.FailFast = opts.run.FailFastSet()

	mgr := serve.NewManager(paoCfg, serve.ManagerConfig{
		Addr: opts.addr,
		Design: serve.Config{
			MaxInFlight:      opts.maxInFlight,
			QueueDepth:       opts.queue,
			RequestTimeout:   opts.requestTimeout,
			RatePerSec:       opts.rate,
			Burst:            opts.burst,
			BreakerThreshold: opts.breakerThreshold,
			BreakerCooldown:  opts.breakerCooldown,
			DrainTimeout:     opts.drainTimeout,
			TraceSample:      opts.traceSample,
			SlowLogSize:      opts.slowlogSize,
			SlowThreshold:    opts.slowThreshold,
		},
		MaxResident:      opts.maxResident,
		SnapshotDir:      opts.snapshotDir,
		SnapshotInterval: opts.snapshotInterval,
		WarmWait:         opts.warmWait,
		MaxUploadBytes:   opts.maxUpload,
		DrainTimeout:     opts.drainTimeout,
	})
	mgr.Logger = logger
	if ob.Obs != nil {
		mgr.Obs = ob.Obs
	}
	mgr.PaoFaultHook = opts.paoFaultHook

	// The initial design (when flagged) registers under its own name, keeping
	// the single-design deployment shape — and its PR-4 snapshots — working
	// unchanged. A signal here aborts startup (exit 3): nothing to drain yet.
	serving := cliutil.Build().Fields()
	if opts.hasInitialDesign() {
		d, err := loadDesign(opts)
		if err != nil {
			return err
		}
		srv, err := mgr.RegisterDesign(ctx, d.Name, d, paoCfg,
			&serve.RegisterOptions{SnapshotPath: opts.snapshotPath})
		if err != nil {
			return err
		}
		serving = append(serving,
			"design", d.Name,
			"design_hash", pao.DesignHash(d),
			"config", pao.ConfigFingerprint(paoCfg),
			"source", srv.Source(),
			"trace_sample", opts.traceSample,
		)
	}
	if err := mgr.Start(); err != nil {
		return err
	}
	serving = append(serving, "addr", mgr.Addr())
	logger.Info("serving", serving...)
	if opts.onReady != nil {
		opts.onReady(mgr)
	}

	// Serve until SIGINT/SIGTERM (or -timeout). The drain + final snapshots
	// run on a fresh context: the triggering signal already cancelled ctx.
	<-ctx.Done()
	logger.Info("shutdown requested, draining")
	if err := mgr.Shutdown(context.Background()); err != nil {
		return err
	}
	logger.Info("clean shutdown")
	return nil
}
