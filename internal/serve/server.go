// Package serve is the resident pin-access-oracle server. A Manager
// (manager.go) owns the process: the design registry, the one HTTP listener,
// request routing, the snapshot timer and the SIGTERM drain. Each registered
// design lives in a Server, its bulkhead: it runs (or restores from snapshot)
// the PAAF pipeline once and answers the design-scoped endpoints the Manager
// dispatches to it, with production robustness semantics — the deployment
// shape of a library-verification service rather than a batch tool.
//
// Three layers of robustness per bulkhead:
//
//   - Admission control (admission.go): a token-bucket rate limiter and a
//     bounded wait queue in front of MaxInFlight execution slots shed
//     overload explicitly (429/503 + Retry-After) instead of letting latency
//     collapse for everyone.
//   - Graceful degradation: queries against classes quarantined in
//     Result.Health answer with best-effort fallback access points marked
//     "degraded": true — never a 500; a circuit breaker (breaker.go) stops
//     re-analysis after repeated panics; background re-analysis swaps the
//     result via an atomic copy-on-write pointer, so readers never block on
//     writers and keep serving the stale-but-valid oracle meanwhile.
//   - Crash safety: the analysis Result persists as a versioned, checksummed
//     snapshot (internal/pao/snapshot.go) written atomically on eviction, on
//     the Manager's timer and on drain; warm restart validates checksum +
//     design hash and falls back to a full recompute on any corruption or
//     mismatch.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/obs"
	"repro/internal/pao"
)

// Fault-hook site names (test-only, nil hooks in production — the same
// convention as pao.Site*). internal/faultinject arms these to prove the
// breaker, shed and snapshot-retry paths deterministically.
const (
	// SiteQuery fires per admitted access query with the instance name as
	// detail; Delay faults occupy an execution slot (shed tests), Panic
	// faults exercise the recover-to-500 + breaker path.
	SiteQuery = "serve.query"
	// SiteSnapshotWrite fires before each snapshot write attempt, inside the
	// retry loop: a one-shot panic proves the write path retries.
	SiteSnapshotWrite = "serve.snapshot.write"
	// SiteSnapshotLoad fires before each warm-restart load attempt.
	SiteSnapshotLoad = "serve.snapshot.load"
	// SiteReanalyze fires at the start of each background re-analysis.
	SiteReanalyze = "serve.reanalyze"
)

// Config tunes one design's bulkhead. The zero value is usable: no rate
// limit, NumCPU in-flight slots and no wait queue.
type Config struct {
	// MaxInFlight bounds concurrently executing queries; < 1 means NumCPU.
	MaxInFlight int
	// QueueDepth bounds requests waiting for a slot; 0 sheds immediately
	// when all slots are busy, < 0 waits unbounded.
	QueueDepth int
	// RequestTimeout is the per-request deadline covering queue wait and
	// execution; 0 disables it.
	RequestTimeout time.Duration
	// RatePerSec and Burst configure the token-bucket limiter; RatePerSec
	// <= 0 disables rate limiting.
	RatePerSec float64
	Burst      int
	// BreakerThreshold is the consecutive-failure count that trips the
	// re-analysis circuit breaker (< 1 means 1); BreakerCooldown is how long
	// it stays open before admitting a probe (<= 0 means 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainTimeout is the fallback for ManagerConfig.DrainTimeout.
	DrainTimeout time.Duration
	// TraceSample is the fraction of admitted queries that record a full
	// span-tree exemplar into the slow-query log (0 disables tracing, 1
	// traces every query). Sampling is deterministic, not random.
	TraceSample float64
	// SlowLogSize bounds the /debug/slowlog ring (0 means 128).
	SlowLogSize int
	// SlowThreshold is the latency at or above which a query enters the slow
	// log even when unsampled (0 means 100ms).
	SlowThreshold time.Duration
}

// state is the immutable serving snapshot readers load atomically. Swapping
// the pointer is the only write, so queries never take a lock.
type state struct {
	res    *pao.Result
	source string // "snapshot", "recompute" or "eco"
	// ecoDirty, when non-nil, marks the window between an ECO's design
	// mutation and its merged result: the listed instance IDs have a stale
	// class binding in res and answer with degraded fallbacks until the
	// post-ECO state swaps in. Everything else still answers exactly.
	ecoDirty map[int]bool
}

// Server is one design's bulkhead. Manager.RegisterDesign creates it and runs
// Init (warm restart or first compute); the Manager's routes then dispatch
// the design-scoped requests to its handlers.
type Server struct {
	cfg    Config
	id     string // registry ID: the design label on every metric family
	design *db.Design
	paoCfg pao.Config
	// snapPath is the snapshot file ("" disables persistence).
	snapPath string

	// Obs is the server's private observer: a registry, which also holds the
	// labeled families below, and no trace. Nothing reads a server's span
	// tree, so its analyzers build none.
	Obs *obs.Observer
	// Logger receives structured operational log lines; the Manager sets it,
	// with the design ID attached, before Init.
	Logger *slog.Logger

	// FaultHook, when set before Init, fires at the Site* points above.
	// Test-only; nil in production.
	FaultHook func(site, detail string)
	// PaoFaultHook/DRCFaultHook are installed on every analyzer the server
	// creates, letting tests quarantine chosen classes. Test-only.
	PaoFaultHook func(site, detail string)
	DRCFaultHook func(site, detail string) []drc.Violation

	now func() time.Time

	curState    atomic.Pointer[state]
	adm         *admission
	brk         *breaker
	reanalyzing atomic.Bool

	// tenantBuckets holds one token bucket per tenant (lazily created with
	// the configured rate), so one tenant draining its budget never rate-
	// limits another. Nil buckets (RatePerSec <= 0) admit everything.
	tenantMu      sync.Mutex
	tenantBuckets map[string]*tokenBucket

	// ecoMu serializes everything that needs a quiescent design for a long
	// stretch: ECO transactions, background re-analysis and snapshot writes.
	// Queries never take it. designMu guards the design database itself:
	// queries hold the read side, and an ECO holds the write side only for
	// the brief Begin mutation — never across re-analysis.
	ecoMu    sync.Mutex
	designMu sync.RWMutex
	eco      *pao.ECOSession // guarded by ecoMu; rebuilt when the result moved

	// lastSnapshotNS is the unix-nano time of the newest on-disk snapshot
	// (0 = none); snapMu serializes writers.
	lastSnapshotNS atomic.Int64
	snapMu         chan struct{} // 1-slot semaphore: context-aware mutex

	// Labeled families of the server's registry (the design label is the
	// Manager's constant label) and the per-query trace/slow-log machinery.
	slow       *slowLog
	sampler    *sampler
	qTotal     *obs.CounterVec   // pao.queries{status}
	qSeconds   *obs.Histogram    // pao.query
	stepSecs   *obs.HistogramVec // pao.step{step}
	apGauge    *obs.GaugeVec     // pao.access_points{layer}
	tAdmit     *obs.CounterVec   // serve.tenant_admitted{tenant}
	tShed      *obs.CounterVec   // serve.tenant_shed{tenant}
	designHash string

	bgCtx    context.Context
	bgCancel context.CancelFunc
}

// newServer builds the bulkhead for design d, registered under id, with its
// snapshot at snapPath. cfg zero values select defaults documented on Config.
func newServer(id string, d *db.Design, paoCfg pao.Config, cfg Config, snapPath string) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = runtime.NumCPU()
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	s := &Server{
		cfg:      cfg,
		id:       id,
		design:   d,
		paoCfg:   paoCfg,
		snapPath: snapPath,
		Obs:      &obs.Observer{Name: "paoserve", Registry: obs.NewRegistry()},
		now:      time.Now,
		snapMu:   make(chan struct{}, 1),
	}
	s.adm = newAdmission(cfg.MaxInFlight, cfg.QueueDepth)
	s.tenantBuckets = make(map[string]*tokenBucket)
	s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func() time.Time { return s.now() })
	s.bgCtx, s.bgCancel = context.WithCancel(context.Background())

	s.slow = newSlowLog(cfg.SlowLogSize, cfg.SlowThreshold)
	s.sampler = newSampler(cfg.TraceSample)
	reg := s.Obs.Registry
	s.qTotal = reg.CounterVec("pao.queries",
		"Access queries answered by the oracle, by outcome.", "status")
	s.qSeconds = reg.HistogramVec("pao.query",
		"End-to-end latency of admitted access queries.").With()
	s.stepSecs = reg.HistogramVec("pao.step",
		"Pipeline step durations of each analysis run served.", "step")
	s.apGauge = reg.GaugeVec("pao.access_points",
		"Access points in the current serving result, by metal layer.", "layer")
	s.tAdmit = reg.CounterVec("serve.tenant_admitted",
		"Queries admitted past rate limiting and the fair queue, by tenant.", "tenant")
	s.tShed = reg.CounterVec("serve.tenant_shed",
		"Queries shed by rate limiting or queue overflow, by tenant.", "tenant")
	s.designHash = pao.DesignHash(d)
	return s
}

// tenantBucket returns (lazily creating) the tenant's private token bucket;
// nil when rate limiting is off.
func (s *Server) tenantBucket(tenant string) *tokenBucket {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	b, ok := s.tenantBuckets[tenant]
	if !ok {
		b = newTokenBucket(s.cfg.RatePerSec, s.cfg.Burst, func() time.Time { return s.now() })
		s.tenantBuckets[tenant] = b
	}
	return b
}

func (s *Server) reg() *obs.Registry { return s.Obs.Reg() }

// Source reports where the serving state came from ("snapshot", "recompute",
// or "" before Init).
func (s *Server) Source() string {
	if st := s.curState.Load(); st != nil {
		return st.source
	}
	return ""
}

// Result returns the current serving result (nil before Init). The returned
// Result is immutable shared state: read only.
func (s *Server) Result() *pao.Result {
	if st := s.curState.Load(); st != nil {
		return st.res
	}
	return nil
}

// Breaker returns the circuit breaker's current state.
func (s *Server) Breaker() BreakerState { return s.brk.current() }

func (s *Server) swap(res *pao.Result, source string) {
	s.curState.Store(&state{res: res, source: source})
	s.publishGauges()
	s.publishResultMetrics(res, source)
}

// publishResultMetrics folds the swapped-in result into the labeled families:
// per-step pipeline durations and per-layer access point counts. Called on
// every swap, so reanalyses accumulate into the same histogram series. ECO
// results ran no pipeline steps (their Stats.Steps are zero), so an "eco"
// swap observes no step durations.
func (s *Server) publishResultMetrics(res *pao.Result, source string) {
	if source != "eco" {
		st := res.Stats.Steps
		for _, step := range []struct {
			name string
			dur  time.Duration
		}{
			{"step1", st.Step1},
			{"step2", st.Step2},
			{"step12_wall", st.Step12Wall},
			{"step3", st.Step3},
			{"failed_pins", st.FailedPins},
			{"total", st.Total},
		} {
			s.stepSecs.With(step.name).Observe(step.dur)
		}
	}
	byLayer := make(map[int]int)
	for _, ua := range res.Unique {
		n := len(ua.UI.Insts)
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				byLayer[ap.Layer] += n
			}
		}
	}
	for layer, n := range byLayer {
		s.apGauge.With("M" + strconv.Itoa(layer)).Set(float64(n))
	}
}

func (s *Server) publishGauges() {
	reg := s.reg()
	reg.Gauge("serve.breaker.state").Set(float64(s.brk.current()))
	reg.Gauge("serve.queue.depth").Set(float64(s.adm.queueDepth()))
	if last := s.lastSnapshotNS.Load(); last > 0 {
		reg.Gauge("serve.snapshot.age_seconds").Set(s.now().Sub(time.Unix(0, last)).Seconds())
	}
}

// analyzer builds an analyzer over the served design with the test hooks
// installed, counting into the server's registry.
func (s *Server) analyzer() *pao.Analyzer {
	a := pao.NewAnalyzer(s.design, s.paoCfg)
	a.FaultHook = s.PaoFaultHook
	a.DRCFaultHook = s.DRCFaultHook
	a.Observe(s.Obs)
	return a
}

// loadRetry is the warm-restart-load policy: a couple of quick retries for
// transient I/O, giving up immediately on corruption, mismatch or a missing
// file (all permanent).
func loadRetry() cliutil.RetryPolicy {
	return cliutil.RetryPolicy{
		Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 0.5,
		RetryIf: func(err error) bool {
			return !pao.SnapshotPermanent(err) && !errors.Is(err, fs.ErrNotExist)
		},
	}
}

// writeRetry is the snapshot-write policy: persistence is worth a few
// attempts with backoff (disk pressure, transient EIO), but never blocks
// serving — writers run outside the query path.
func writeRetry() cliutil.RetryPolicy {
	return cliutil.RetryPolicy{
		Attempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5,
	}
}

// Init produces the first serving state: warm restart from the snapshot when
// it validates, full recompute otherwise. The recovery path taken is logged
// and counted (serve.restart.warm / serve.restart.recompute /
// serve.snapshot.corrupt).
func (s *Server) Init(ctx context.Context) error {
	reg := s.reg()
	if path := s.snapPath; path != "" {
		var res *pao.Result
		err := cliutil.Retry(ctx, loadRetry(), func() error {
			if h := s.FaultHook; h != nil {
				h(SiteSnapshotLoad, path)
			}
			r, rerr := pao.ReadSnapshotFile(path, s.design, s.paoCfg)
			if rerr != nil {
				return rerr
			}
			res = r
			return nil
		})
		switch {
		case err == nil:
			s.lastSnapshotNS.Store(s.now().UnixNano())
			s.swap(res, "snapshot")
			reg.Counter("serve.restart.warm").Inc()
			s.Logger.Info("warm restart from snapshot", "classes", len(res.Unique), "path", path)
			return nil
		case errors.Is(err, fs.ErrNotExist):
			s.Logger.Info("no snapshot, computing", "path", path)
		default:
			reg.Counter("serve.snapshot.corrupt").Inc()
			s.Logger.Warn("snapshot rejected, falling back to recompute", "path", path, "err", err)
		}
	}
	res, err := s.analyzer().RunContext(ctx)
	if err != nil {
		return err
	}
	s.swap(res, "recompute")
	reg.Counter("serve.restart.recompute").Inc()
	s.Logger.Info("cold start analysis complete",
		"classes", len(res.Unique), "health", res.Health.String())
	return nil
}

// WriteSnapshot persists the current serving state with retry. Injected
// panics at SiteSnapshotWrite convert to retryable errors, proving the
// cliutil.Retry path.
func (s *Server) WriteSnapshot(ctx context.Context) error {
	if s.snapPath == "" {
		return nil
	}
	// A snapshot pairs the design with the result; taking ecoMu keeps an ECO
	// from mutating the design between the state load and the file write.
	s.ecoMu.Lock()
	defer s.ecoMu.Unlock()
	st := s.curState.Load()
	if st == nil {
		return nil
	}
	select {
	case s.snapMu <- struct{}{}:
		defer func() { <-s.snapMu }()
	case <-ctx.Done():
		return ctx.Err()
	}
	reg := s.reg()
	err := cliutil.Retry(ctx, writeRetry(), func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("snapshot write panic: %v", rec)
			}
		}()
		if h := s.FaultHook; h != nil {
			h(SiteSnapshotWrite, s.snapPath)
		}
		return pao.WriteSnapshotFile(s.snapPath, s.design, s.paoCfg, st.res)
	})
	if err != nil {
		reg.Counter("serve.snapshot.write_errors").Inc()
		s.Logger.Error("snapshot write failed", "path", s.snapPath, "err", err)
		return err
	}
	s.lastSnapshotNS.Store(s.now().UnixNano())
	reg.Counter("serve.snapshot.writes").Inc()
	s.publishGauges()
	return nil
}

// Evict releases the serving result after persisting it: the snapshot (when
// a path is configured) is written crash-safely with retry, then the atomic
// state pointer drops to nil so the Result becomes collectable. The design
// database itself stays resident — a later Init warm-restarts from the
// snapshot (or recomputes) without re-parsing inputs. The caller must ensure
// no queries are dispatched to this server between Evict and the next Init
// (the Manager holds the design's gate write-locked across it).
func (s *Server) Evict(ctx context.Context) error {
	if err := s.WriteSnapshot(ctx); err != nil {
		return err
	}
	s.ecoMu.Lock()
	defer s.ecoMu.Unlock()
	s.eco = nil
	s.curState.Store(nil)
	return nil
}

// TriggerReanalyze starts one background re-analysis if the breaker admits
// it and none is running. The fresh result swaps in atomically only when it
// is at least as healthy as what it replaces; otherwise the server keeps
// serving the stale-but-valid oracle.
func (s *Server) TriggerReanalyze() (accepted bool, reason string) {
	reg := s.reg()
	if !s.brk.allow() {
		reg.Counter("serve.reanalyze.rejected").Inc()
		return false, "circuit breaker open"
	}
	if !s.reanalyzing.CompareAndSwap(false, true) {
		return false, "re-analysis already running"
	}
	go func() {
		defer s.reanalyzing.Store(false)
		s.reanalyze(s.bgCtx)
	}()
	return true, ""
}

func (s *Server) reanalyze(ctx context.Context) {
	reg := s.reg()
	defer func() {
		if rec := recover(); rec != nil {
			reg.Counter("serve.panics").Inc()
			s.brk.failure()
			s.publishGauges()
			s.Logger.Error("re-analysis panic",
				"breaker", s.brk.current().String(), "panic", fmt.Sprint(rec))
		}
	}()
	if h := s.FaultHook; h != nil {
		h(SiteReanalyze, "")
	}
	// Re-analysis reads the whole design; hold ecoMu (not designMu) so an
	// ECO can't mutate it mid-run while queries stay unblocked.
	s.ecoMu.Lock()
	defer s.ecoMu.Unlock()
	res, err := s.analyzer().RunContext(ctx)
	switch {
	case err != nil:
		reg.Counter("serve.reanalyze.failed").Inc()
		s.brk.failure()
		s.Logger.Warn("re-analysis aborted", "err", err)
	case len(res.Health.Errors()) > 0:
		reg.Counter("serve.reanalyze.failed").Inc()
		s.brk.failure()
		if old := s.curState.Load(); old == nil {
			s.swap(res, "recompute") // degraded beats nothing
		} else {
			s.Logger.Warn("re-analysis degraded, keeping stale result", "health", res.Health.String())
		}
	default:
		reg.Counter("serve.reanalyze.ok").Inc()
		s.brk.success()
		s.swap(res, "recompute")
	}
	s.publishGauges()
}

// DesignHash returns the hash of the design as currently placed (ECOs update
// it).
func (s *Server) DesignHash() string {
	s.designMu.RLock()
	defer s.designMu.RUnlock()
	return s.designHash
}

// statusWriter captures the response status code for query accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusLabel collapses an HTTP status into the low-cardinality label used by
// pao_queries_total.
func statusLabel(code int) string {
	switch {
	case code < 300:
		return "ok"
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return "shed"
	case code < 500:
		return "client_error"
	default:
		return "error"
	}
}

// tenantOf extracts the request's tenant ID from the X-Tenant-Id header or
// the ?tenant= query parameter; requests without one share the "default"
// tenant. Tenant IDs feed metric labels and map keys, so they pass the same
// charset/length validation as design IDs.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant-Id")
	if t == "" {
		t = r.URL.Query().Get("tenant")
	}
	if t == "" {
		return "default", nil
	}
	if err := ValidateID(t); err != nil {
		return "", fmt.Errorf("bad tenant ID: %w", err)
	}
	return t, nil
}

// admitted wraps a query handler with the full admission pipeline: per-tenant
// rate limit (429), fair bounded queue + per-request deadline (503), panic
// recovery (500 + breaker), latency accounting, and per-query telemetry —
// every request gets a correlation ID (propagated from X-Correlation-Id or
// newly minted, echoed back on the response), sampled requests carry a span
// tree through ctx, and slow or sampled queries land in /debug/slowlog.
func (s *Server) admitted(op string, h http.HandlerFunc) http.HandlerFunc {
	return s.admittedCost(op, nil, h)
}

// admittedCost is admitted with a pluggable admission cost: costFn (when
// non-nil) runs before rate limiting, may rewrite the request (e.g. stash a
// parsed batch body in its context), and returns the number of instances the
// request will answer — the charge taken from the tenant's token bucket and
// the weight used by the fair dequeue. Errors from costFn answer 400 (or the
// error's own status for *admitError).
func (s *Server) admittedCost(op string, costFn func(r *http.Request) (*http.Request, int, error), h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := s.reg()
		t0 := s.now()
		corr := r.Header.Get("X-Correlation-Id")
		if corr == "" {
			corr = newCorrID()
		}
		w.Header().Set("X-Correlation-Id", corr)
		tenant, terr := tenantOf(r)
		if terr != nil {
			s.qTotal.With("client_error").Inc()
			http.Error(w, terr.Error(), http.StatusBadRequest)
			return
		}
		cost := 1
		if costFn != nil {
			r2, n, err := costFn(r)
			if err != nil {
				s.qTotal.With("client_error").Inc()
				code := http.StatusBadRequest
				var ae *admitError
				if errors.As(err, &ae) {
					code = ae.code
				}
				http.Error(w, err.Error(), code)
				return
			}
			r, cost = r2, n
		}
		if ok, retry := s.tenantBucket(tenant).takeN(cost); !ok {
			reg.Counter("serve.shed.rate").Inc()
			s.qTotal.With("shed").Inc()
			s.tShed.With(tenant).Inc()
			w.Header().Set("Retry-After", retryAfterSecs(retry))
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		release, _, ok := s.adm.acquire(ctx, tenant, cost)
		reg.Gauge("serve.queue.depth").Set(float64(s.adm.queueDepth()))
		if !ok {
			if ctx.Err() != nil {
				reg.Counter("serve.shed.deadline").Inc()
			} else {
				reg.Counter("serve.shed.queue").Inc()
			}
			s.qTotal.With("shed").Inc()
			s.tShed.With(tenant).Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded, request shed", http.StatusServiceUnavailable)
			return
		}
		defer release()
		s.tAdmit.With(tenant).Inc()
		var root *obs.Span
		if s.sampler.sample() {
			root = obs.NewTrace("serve." + op).Root
			ctx = withSpan(ctx, root)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			d := s.now().Sub(t0)
			if rec := recover(); rec != nil {
				reg.Counter("serve.panics").Inc()
				s.brk.failure()
				s.publishGauges()
				s.Logger.Error("query panic recovered", "corr", corr,
					"breaker", s.brk.current().String(), "panic", fmt.Sprint(rec))
				http.Error(sw, "internal error (recovered)", http.StatusInternalServerError)
			}
			s.qTotal.With(statusLabel(sw.code)).Inc()
			s.qSeconds.Observe(d)
			entry := SlowLogEntry{
				CorrID: corr, Op: op, Detail: r.URL.RawQuery, Status: sw.code,
				Start: t0, DurMS: float64(d) / 1e6,
			}
			if root != nil {
				root.End()
				entry.Trace = root.Export()
			}
			s.slow.observe(entry, d)
		}()
		h(sw, r.WithContext(ctx))
	}
}

// admitError lets a costFn pick the HTTP status of its rejection (413 for an
// oversized body, 405 for a bad method) instead of the default 400.
type admitError struct {
	code int
	msg  string
}

func (e *admitError) Error() string { return e.msg }

func retryAfterSecs(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
