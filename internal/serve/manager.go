package serve

// Multi-tenant design manager: one resident paoserve process holds many
// designs, each behind its own *bulkhead* — a private Server with its own
// circuit breaker, fair admission queue, per-tenant token buckets, ECO mutex
// and atomic result pointer. A panic storm, breaker trip or queue saturation
// on design A therefore cannot shed, block or 503 design B: the only shared
// machinery is the HTTP listener and this registry.
//
// Lifecycle of a design (the eviction state machine):
//
//	            POST /v1/designs
//	                  │ (analyze / decode snapshot)
//	   ┌──────────────▼───┐   budget exceeded / explicit evict
//	   │      ready       ├────────────────────────────────┐
//	   └───▲──────────────┘   (snapshot + drop result)     │
//	       │ Init ok                                 ┌─────▼─────┐
//	 ┌─────┴─────┐  first query (lazy warm restart)  │  evicted  │
//	 │  warming  ◄───────────────────────────────────┴───────────┘
//	 └─────┬─────┘
//	       │ Init failed
//	 ┌─────▼─────┐
//	 │  failed   │  (DELETE + re-register to recover)
//	 └───────────┘
//
// Memory pressure: MaxResident bounds resident (ready+warming) designs; the
// coldest ready design (least-recently queried) is evicted to its versioned,
// checksummed snapshot (crash-safe temp+fsync+rename with retry) and its
// Result released. The next query triggers a lazy warm restart — it blocks up
// to WarmWait for the snapshot load, then serves; past the bound it answers
// 202 {"status":"warming"} with Retry-After. A corrupt or mismatched
// snapshot falls back to a full recompute exactly like a process restart.
// SIGTERM drains in-flight requests and snapshots every resident design.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/obs"
	"repro/internal/pao"
)

// Manager-level fault-hook sites (test-only, nil hooks in production).
const (
	// SiteEvict fires before a design eviction with the design ID as detail.
	SiteEvict = "serve.evict"
	// SiteWarm fires at the start of each lazy warm restart.
	SiteWarm = "serve.warm"
)

// Registry errors, mapped to HTTP statuses by the handlers.
var (
	ErrDesignExists  = errors.New("serve: design already registered")
	ErrUnknownDesign = errors.New("serve: unknown design")
	ErrDraining      = errors.New("serve: manager draining")
)

// DesignState is one design's position in the eviction state machine.
type DesignState int32

const (
	// DesignWarming covers initial registration analysis and lazy warm
	// restarts: the design is resident but has no serving result yet.
	DesignWarming DesignState = iota
	// DesignReady serves queries from its resident result.
	DesignReady
	// DesignEvicted has been snapshotted to disk and its result released;
	// the next query warms it back up.
	DesignEvicted
	// DesignFailed could not produce a serving result (failed analysis);
	// DELETE and re-register to recover.
	DesignFailed
)

var designStateNames = [...]string{"warming", "ready", "evicted", "failed"}

func (s DesignState) String() string {
	if int(s) < len(designStateNames) {
		return designStateNames[s]
	}
	return fmt.Sprintf("DesignState(%d)", int32(s))
}

// ManagerConfig tunes the multi-design registry. The per-design bulkhead
// limits (slots, queue, rate, breaker, …) come from the Design template,
// applied to every registered design unless the registration overrides them.
type ManagerConfig struct {
	// Addr is the listen address for Start ("127.0.0.1:0" picks a free port).
	Addr string
	// Design is the per-design bulkhead config template.
	Design Config
	// MaxResident bounds resident (ready or warming) designs; registering or
	// warming past it evicts the coldest ready design. 0 means unlimited.
	MaxResident int
	// SnapshotDir is where eviction/shutdown snapshots land (<id>.snap).
	// Empty disables persistence: evicted designs recompute on first query.
	SnapshotDir string
	// SnapshotInterval adds timer-driven snapshots of every ready design on
	// top of the eviction and shutdown writes; 0 disables the timer.
	SnapshotInterval time.Duration
	// WarmWait bounds how long a query blocks for a lazy warm restart before
	// answering 202 {"status":"warming"}. 0 answers 202 immediately.
	WarmWait time.Duration
	// MaxUploadBytes caps a POST /v1/designs body (0 means 32 MiB).
	MaxUploadBytes int64
	// DrainTimeout caps Shutdown's wait for in-flight requests and the final
	// snapshot sweep (0 means the Design template's, or 10s).
	DrainTimeout time.Duration
}

// entry is one registered design and its bulkhead.
type entry struct {
	id  string
	srv *Server

	state      atomic.Int32 // DesignState
	lastAccess atomic.Int64 // unix nanos of the newest query; LRU key

	// gate serializes serving against eviction/deletion: every dispatched
	// request holds the read side for its whole lifetime, Evict/Delete hold
	// the write side, so a design is never torn down under a live query.
	gate sync.RWMutex

	// warmDone is non-nil exactly while an Init (registration or warm
	// restart) is in flight; waiters block on it. Guarded by warmMu.
	warmMu   sync.Mutex
	warmDone chan struct{}
}

func (e *entry) touch(t time.Time) { e.lastAccess.Store(t.UnixNano()) }

// Manager is the multi-design registry and HTTP front end. Create with
// NewManager, register designs (RegisterDesign or POST /v1/designs), then
// Start/Shutdown — or drive Handler() directly in tests.
type Manager struct {
	cfg    ManagerConfig
	paoCfg pao.Config

	// Obs receives the manager-level metrics (evictions, warm restarts,
	// resident gauge); per-design metrics live on each design's Server.
	Obs *obs.Observer
	// Logger receives structured operational log lines. NewManager sets one
	// that is disabled at every level; replace it before registering designs.
	Logger *slog.Logger

	// FaultHook fires at SiteEvict/SiteWarm and is installed on every
	// registered design's Server (SiteQuery etc.). Test-only; set before use.
	FaultHook func(site, detail string)
	// PaoFaultHook/DRCFaultHook are installed on every design's analyzers.
	PaoFaultHook func(site, detail string)
	DRCFaultHook func(site, detail string) []drc.Violation

	now func() time.Time

	mu      sync.Mutex
	entries map[string]*entry

	draining atomic.Bool
	bgCtx    context.Context
	bgCancel context.CancelFunc

	ln   net.Listener
	http *http.Server
}

// NewManager builds an empty registry. paoCfg is the default analysis config
// for registered designs (per-registration K/Workers overrides apply on top).
func NewManager(paoCfg pao.Config, cfg ManagerConfig) *Manager {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 32 << 20
	}
	if cfg.DrainTimeout <= 0 {
		if cfg.Design.DrainTimeout > 0 {
			cfg.DrainTimeout = cfg.Design.DrainTimeout
		} else {
			cfg.DrainTimeout = 10 * time.Second
		}
	}
	if cfg.SnapshotDir != "" {
		// Snapshots are best-effort by contract (a failed write degrades to
		// recompute, never to a wrong answer), but a missing directory would
		// fail every one of them — create it up front; write errors surface
		// per snapshot if this fails.
		_ = os.MkdirAll(cfg.SnapshotDir, 0o700)
	}
	m := &Manager{
		cfg:     cfg,
		paoCfg:  paoCfg,
		Obs:     obs.NewObserver("paoserve"),
		Logger:  slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)})),
		now:     time.Now,
		entries: make(map[string]*entry),
	}
	m.bgCtx, m.bgCancel = context.WithCancel(context.Background())
	return m
}

func (m *Manager) reg() *obs.Registry { return m.Obs.Reg() }

// snapPath derives a design's eviction-snapshot path ("" when persistence is
// disabled).
func (m *Manager) snapPath(id string) string {
	if m.cfg.SnapshotDir == "" {
		return ""
	}
	return m.cfg.SnapshotDir + string(os.PathSeparator) + id + ".snap"
}

// RegisterOptions tunes one registration beyond the manager's defaults.
type RegisterOptions struct {
	// SnapshotPath overrides the SnapshotDir-derived path (the CLI's legacy
	// -snapshot flag). Empty keeps the derived path.
	SnapshotPath string
	// Snapshot, when non-empty, is a PR-4 snapshot byte stream to warm-start
	// from instead of analyzing; corrupt or mismatched bytes fall back to a
	// full compute (counted, logged), exactly like a bad on-disk snapshot.
	Snapshot []byte
	// Tune, when non-nil, adjusts the design's bulkhead config (slots, queue,
	// rate) after the template is applied.
	Tune func(*Config)
}

// RegisterDesign adds a design to the registry under id and produces its
// first serving state (snapshot decode, warm restart from disk, or full
// analysis). The returned Server is the design's bulkhead; it is already
// resident on success. Duplicate ids fail with ErrDesignExists.
func (m *Manager) RegisterDesign(ctx context.Context, id string, d *db.Design, paoCfg pao.Config, opts *RegisterOptions) (*Server, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	if opts == nil {
		opts = &RegisterOptions{}
	}
	scfg := m.cfg.Design
	if opts.Tune != nil {
		opts.Tune(&scfg)
	}
	snap := opts.SnapshotPath
	if snap == "" {
		snap = m.snapPath(id)
	}
	srv := newServer(id, d, paoCfg, scfg, snap)
	srv.Logger = m.Logger.With("design", id)
	srv.FaultHook = m.FaultHook
	srv.PaoFaultHook = m.PaoFaultHook
	srv.DRCFaultHook = m.DRCFaultHook

	e := &entry{id: id, srv: srv}
	e.state.Store(int32(DesignWarming))
	e.touch(m.now())
	done := make(chan struct{})
	e.warmDone = done

	m.mu.Lock()
	if _, dup := m.entries[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDesignExists, id)
	}
	m.entries[id] = e
	m.mu.Unlock()

	ok := false
	defer func() {
		if !ok {
			m.mu.Lock()
			delete(m.entries, id)
			m.mu.Unlock()
		}
		e.warmMu.Lock()
		e.warmDone = nil
		e.warmMu.Unlock()
		close(done)
		m.publishGauges()
	}()

	loaded := false
	if len(opts.Snapshot) > 0 {
		res, err := pao.DecodeSnapshot(bytes.NewReader(opts.Snapshot), d, paoCfg)
		if err != nil {
			m.reg().Counter("serve.register.snapshot_rejected").Inc()
			m.Logger.Warn("uploaded snapshot rejected, analyzing instead", "design", id, "err", err)
		} else {
			srv.swap(res, "snapshot")
			// Persist immediately so eviction and crash recovery see it.
			_ = srv.WriteSnapshot(ctx)
			loaded = true
		}
	}
	if !loaded {
		if err := srv.Init(ctx); err != nil {
			return nil, err
		}
	}
	e.state.Store(int32(DesignReady))
	ok = true
	m.reg().Counter("serve.designs.registered").Inc()
	m.Logger.Info("design registered",
		"design", id, "instances", len(d.Instances), "source", srv.Source())
	m.enforceBudget(ctx)
	return srv, nil
}

// ServerFor returns the named design's bulkhead Server (nil when absent).
// The Server stays valid across evictions; tests use it to install fault
// hooks and read per-design counters.
func (m *Manager) ServerFor(id string) *Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[id]; e != nil {
		return e.srv
	}
	return nil
}

// StateFor returns the named design's lifecycle state.
func (m *Manager) StateFor(id string) (DesignState, bool) {
	m.mu.Lock()
	e := m.entries[id]
	m.mu.Unlock()
	if e == nil {
		return 0, false
	}
	return DesignState(e.state.Load()), true
}

func (m *Manager) get(id string) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[id]
}

// list returns the entries sorted by id (stable metrics/exposition order).
func (m *Manager) list() []*entry {
	m.mu.Lock()
	es := make([]*entry, 0, len(m.entries))
	for _, e := range m.entries {
		es = append(es, e)
	}
	m.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].id < es[j].id })
	return es
}

// residentCount counts designs currently occupying memory (ready + warming).
func (m *Manager) residentCount() int {
	n := 0
	for _, e := range m.list() {
		switch DesignState(e.state.Load()) {
		case DesignReady, DesignWarming:
			n++
		}
	}
	return n
}

func (m *Manager) publishGauges() {
	m.reg().Gauge("serve.resident_designs").Set(float64(m.residentCount()))
	m.mu.Lock()
	n := len(m.entries)
	m.mu.Unlock()
	m.reg().Gauge("serve.registered_designs").Set(float64(n))
}

// enforceBudget evicts the coldest ready designs until the resident count is
// back under MaxResident. Callers must not hold m.mu or any entry gate.
func (m *Manager) enforceBudget(ctx context.Context) {
	if m.cfg.MaxResident <= 0 {
		return
	}
	for m.residentCount() > m.cfg.MaxResident {
		var victim *entry
		var coldest int64
		for _, e := range m.list() {
			if DesignState(e.state.Load()) != DesignReady {
				continue
			}
			if la := e.lastAccess.Load(); victim == nil || la < coldest {
				victim, coldest = e, la
			}
		}
		if victim == nil {
			return // everything resident is mid-warm; nothing safe to evict
		}
		if err := m.evictEntry(ctx, victim); err != nil {
			m.Logger.Error("budget eviction failed", "design", victim.id, "err", err)
			return
		}
	}
}

// EvictDesign snapshots and releases one design's serving result. The design
// stays registered; the next query lazily warm-restarts it.
func (m *Manager) EvictDesign(ctx context.Context, id string) error {
	e := m.get(id)
	if e == nil {
		return fmt.Errorf("%w: %s", ErrUnknownDesign, id)
	}
	return m.evictEntry(ctx, e)
}

func (m *Manager) evictEntry(ctx context.Context, e *entry) error {
	if h := m.FaultHook; h != nil {
		h(SiteEvict, e.id)
	}
	e.gate.Lock()
	defer e.gate.Unlock()
	if st := DesignState(e.state.Load()); st != DesignReady {
		return fmt.Errorf("design %s is %s, not evictable", e.id, st)
	}
	if err := e.srv.Evict(ctx); err != nil {
		m.reg().Counter("serve.evict.failed").Inc()
		return err
	}
	e.state.Store(int32(DesignEvicted))
	m.reg().Counter("serve.evictions").Inc()
	m.publishGauges()
	m.Logger.Info("design evicted", "design", e.id, "snapshot", e.srv.snapPath)
	return nil
}

// DeleteDesign removes a design entirely: waits out in-flight requests,
// cancels its background work and deletes its manager-derived snapshot.
func (m *Manager) DeleteDesign(id string) error {
	m.mu.Lock()
	e := m.entries[id]
	if e == nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownDesign, id)
	}
	delete(m.entries, id)
	m.mu.Unlock()

	// Quiesce: no new requests can resolve the id; wait for in-flight ones
	// and any warm restart to finish before tearing down.
	e.warmMu.Lock()
	done := e.warmDone
	e.warmMu.Unlock()
	if done != nil {
		<-done
	}
	e.gate.Lock()
	defer e.gate.Unlock()
	e.srv.bgCancel()
	if p := m.snapPath(id); p != "" && e.srv.snapPath == p {
		_ = os.Remove(p)
	}
	m.reg().Counter("serve.designs.deleted").Inc()
	m.publishGauges()
	m.Logger.Info("design deleted", "design", id)
	return nil
}

// startWarm ensures a warm restart is in flight for a non-ready design and
// returns a channel that closes when it settles (ready or failed). For
// already-ready or failed designs it returns a closed channel; the caller
// re-reads the state.
func (m *Manager) startWarm(e *entry) <-chan struct{} {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	if e.warmDone != nil {
		return e.warmDone
	}
	done := make(chan struct{})
	switch DesignState(e.state.Load()) {
	case DesignReady, DesignFailed:
		close(done)
		return done
	}
	e.state.Store(int32(DesignWarming))
	e.warmDone = done
	go m.warm(e, done)
	return done
}

func (m *Manager) warm(e *entry, done chan struct{}) {
	var err error
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("warm restart panic: %v", rec)
		}
		if err != nil {
			e.state.Store(int32(DesignFailed))
			m.reg().Counter("serve.warm.failed").Inc()
			m.Logger.Error("warm restart failed", "design", e.id, "err", err)
		} else {
			e.state.Store(int32(DesignReady))
			m.reg().Counter("serve.warm_restarts").Inc()
			m.Logger.Info("warm restart", "design", e.id, "source", e.srv.Source())
		}
		e.warmMu.Lock()
		e.warmDone = nil
		e.warmMu.Unlock()
		close(done)
		m.publishGauges()
		if err == nil {
			m.enforceBudget(m.bgCtx)
		}
	}()
	if h := m.FaultHook; h != nil {
		h(SiteWarm, e.id)
	}
	err = e.srv.Init(m.bgCtx)
}

// resolve picks the target design for a design-scoped request: ?design= or
// the X-Design header; with neither, a single resident registry is
// unambiguous, an empty one is 404, and anything else is a 400 — answering
// from "whichever design happens to be loaded" is how a client silently
// queries the wrong oracle.
func (m *Manager) resolve(r *http.Request) (*entry, int, string) {
	id := r.URL.Query().Get("design")
	if id == "" {
		id = r.Header.Get("X-Design")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		switch len(m.entries) {
		case 0:
			return nil, http.StatusNotFound, "no designs registered"
		case 1:
			for _, e := range m.entries {
				return e, 0, ""
			}
		}
		ids := make([]string, 0, len(m.entries))
		for id := range m.entries {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, http.StatusBadRequest,
			"ambiguous request: " + fmt.Sprint(len(ids)) + " designs resident, pass ?design= (one of " +
				strings.Join(ids, ", ") + ")"
	}
	e := m.entries[id]
	if e == nil {
		return nil, http.StatusNotFound, "unknown design " + id
	}
	return e, 0, ""
}

// dispatch routes a design-scoped request to its bulkhead, warming evicted
// designs first (blocking up to WarmWait, else 202). The entry's gate is
// read-held for the handler's whole lifetime so eviction never tears the
// design down under a live request.
func (m *Manager) dispatch(h func(*Server) http.HandlerFunc) http.HandlerFunc {
	return m.route(true, h)
}

// cold routes without requiring (or triggering) a warm design — for
// endpoints that answer sensibly about an evicted design (slow log, stats).
func (m *Manager) cold(h func(*Server) http.HandlerFunc) http.HandlerFunc {
	return m.route(false, h)
}

func (m *Manager) route(needWarm bool, h func(*Server) http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, code, msg := m.resolve(r)
		if e == nil {
			http.Error(w, msg, code)
			return
		}
		e.touch(m.now())
		// A design can be evicted between ensureReady and the gate lock;
		// retry the warm-up a bounded number of times rather than answering
		// 503 for a design that is merely cold.
		for attempt := 0; attempt < 3; attempt++ {
			if needWarm && !m.ensureReady(w, r, e) {
				return // response already written (202 warming / 503)
			}
			served := func() bool {
				e.gate.RLock()
				defer e.gate.RUnlock()
				if !needWarm || DesignState(e.state.Load()) == DesignReady {
					h(e.srv)(w, r)
					return true
				}
				return false
			}()
			if served {
				return
			}
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "design "+e.id+" busy (evicting/warming), retry", http.StatusServiceUnavailable)
	}
}

// ensureReady returns true when the design is ready to serve. Otherwise it
// answers the request itself (202 warming, 503 failed/cancelled) and returns
// false.
func (m *Manager) ensureReady(w http.ResponseWriter, r *http.Request, e *entry) bool {
	for {
		switch DesignState(e.state.Load()) {
		case DesignReady:
			return true
		case DesignFailed:
			http.Error(w, "design "+e.id+" failed to load; DELETE and re-register",
				http.StatusServiceUnavailable)
			return false
		}
		done := m.startWarm(e)
		select {
		case <-done:
			continue // settled: re-read the state
		default:
		}
		if m.cfg.WarmWait <= 0 {
			m.answerWarming(w, e)
			return false
		}
		t := time.NewTimer(m.cfg.WarmWait)
		select {
		case <-done:
			t.Stop()
		case <-r.Context().Done():
			t.Stop()
			http.Error(w, "request cancelled while design "+e.id+" warming",
				http.StatusServiceUnavailable)
			return false
		case <-t.C:
			m.answerWarming(w, e)
			return false
		}
	}
}

func (m *Manager) answerWarming(w http.ResponseWriter, e *entry) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusAccepted, map[string]string{
		"status": "warming", "design": e.id,
	})
}

// Handler returns the manager's endpoint mux: the registry endpoints plus
// every per-design endpoint, design-scoped via ?design= (or X-Design).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/designs", m.handleListDesigns)
	mux.HandleFunc("POST /v1/designs", m.handleRegister)
	mux.HandleFunc("GET /v1/designs/{id}", m.handleDesignGet)
	mux.HandleFunc("DELETE /v1/designs/{id}", m.handleDesignDelete)
	mux.HandleFunc("POST /v1/designs/{id}/evict", m.handleDesignEvict)

	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/readyz", m.handleReadyz)
	mux.HandleFunc("/metricz", m.handleMetricz)
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/version", m.handleVersion)

	mux.HandleFunc("/v1/access", m.dispatch(func(s *Server) http.HandlerFunc {
		return s.admitted("access", s.handleAccess)
	}))
	mux.HandleFunc("/v1/access/batch", m.dispatch(func(s *Server) http.HandlerFunc {
		return s.admittedCost("batch", s.batchCost, s.handleBatch)
	}))
	mux.HandleFunc("/v1/access/explain", m.dispatch(func(s *Server) http.HandlerFunc {
		return s.admitted("explain", s.handleExplain)
	}))
	mux.HandleFunc("/v1/eco", m.dispatch(func(s *Server) http.HandlerFunc {
		return s.admitted("eco", s.handleECO)
	}))
	mux.HandleFunc("/v1/reanalyze", m.dispatch(func(s *Server) http.HandlerFunc {
		return s.handleReanalyze
	}))
	mux.HandleFunc("/v1/stats", m.cold(func(s *Server) http.HandlerFunc {
		return s.handleStats
	}))
	mux.HandleFunc("/debug/slowlog", m.cold(func(s *Server) http.HandlerFunc {
		return s.handleSlowlog
	}))
	return mux
}

// DesignInfo is one design's registry listing.
type DesignInfo struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Ready      bool    `json:"ready"`
	Reason     string  `json:"reason,omitempty"`
	Source     string  `json:"source,omitempty"`
	Breaker    string  `json:"breaker"`
	Design     string  `json:"design"`
	DesignHash string  `json:"design_hash"`
	Instances  int     `json:"instances"`
	Classes    int     `json:"classes,omitempty"`
	Health     string  `json:"health,omitempty"`
	Snapshot   string  `json:"snapshot,omitempty"`
	IdleSec    float64 `json:"idle_sec"`
}

func (m *Manager) designInfo(e *entry) DesignInfo {
	srv := e.srv
	info := DesignInfo{
		ID:         e.id,
		State:      DesignState(e.state.Load()).String(),
		Breaker:    srv.Breaker().String(),
		Design:     srv.design.Name,
		DesignHash: srv.DesignHash(),
		Instances:  len(srv.design.Instances),
		Snapshot:   srv.snapPath,
		IdleSec:    m.now().Sub(time.Unix(0, e.lastAccess.Load())).Seconds(),
	}
	info.Ready, info.Reason = m.ready(e)
	if res := srv.Result(); res != nil {
		info.Source = srv.Source()
		info.Classes = len(res.Unique)
		if h := res.Health; h != nil && !h.OK() {
			info.Health = h.String()
		}
	}
	return info
}

// ready reports whether a design should receive traffic, with the reason when
// not: the process is not draining, the design is resident with a loaded
// result, and its breaker is not open.
func (m *Manager) ready(e *entry) (bool, string) {
	st := DesignState(e.state.Load())
	switch {
	case m.draining.Load():
		return false, "draining"
	case st != DesignReady:
		return false, st.String()
	case e.srv.Result() == nil:
		return false, "analysis not loaded"
	case e.srv.Breaker() == BreakerOpen:
		return false, "circuit breaker open"
	}
	return true, ""
}

// ListResponse answers GET /v1/designs.
type ListResponse struct {
	Designs  []DesignInfo `json:"designs"`
	Resident int          `json:"resident"`
	Budget   int          `json:"budget,omitempty"`
}

func (m *Manager) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	resp := ListResponse{Designs: []DesignInfo{}, Budget: m.cfg.MaxResident}
	for _, e := range m.list() {
		resp.Designs = append(resp.Designs, m.designInfo(e))
	}
	resp.Resident = m.residentCount()
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleDesignGet(w http.ResponseWriter, r *http.Request) {
	e := m.get(r.PathValue("id"))
	if e == nil {
		http.Error(w, "unknown design "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, m.designInfo(e))
}

func (m *Manager) handleDesignDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.DeleteDesign(r.PathValue("id")); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownDesign) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "design": r.PathValue("id")})
}

func (m *Manager) handleDesignEvict(w http.ResponseWriter, r *http.Request) {
	if err := m.EvictDesign(r.Context(), r.PathValue("id")); err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrUnknownDesign) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "evicted", "design": r.PathValue("id")})
}

// ManagerHealthz answers /healthz at the manager: always 200, one summary
// row per design.
type ManagerHealthz struct {
	Status   string                `json:"status"` // ok | degraded
	Draining bool                  `json:"draining,omitempty"`
	Resident int                   `json:"resident"`
	Designs  map[string]DesignInfo `json:"designs"`
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := ManagerHealthz{Status: "ok", Draining: m.draining.Load(), Designs: map[string]DesignInfo{}}
	for _, e := range m.list() {
		info := m.designInfo(e)
		resp.Designs[e.id] = info
		if info.State == DesignFailed.String() || info.Health != "" {
			resp.Status = "degraded"
		}
	}
	resp.Resident = m.residentCount()
	if resp.Draining {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz reports readiness. With ?design= it is that design's (see
// ready): a fault storm on design A flips A's readiness, never B's. Without a
// design it reports the process: 503 only while draining, with the per-design
// map in the body (one broken bulkhead must not make a load balancer pull the
// whole multi-tenant node).
func (m *Manager) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("design"); id != "" {
		e := m.get(id)
		if e == nil {
			http.Error(w, "unknown design "+id, http.StatusNotFound)
			return
		}
		if ok, reason := m.ready(e); !ok {
			if e.srv.brk.current() == BreakerOpen {
				w.Header().Set("Retry-After", retryAfterSecs(e.srv.brk.retryAfter()))
			}
			http.Error(w, "not ready: design "+id+" "+reason, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
		return
	}
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
	}
	resp := struct {
		Status  string               `json:"status"`
		Designs map[string]readiness `json:"designs"`
	}{Status: "ok", Designs: map[string]readiness{}}
	for _, e := range m.list() {
		info := m.designInfo(e)
		resp.Designs[e.id] = readiness{Ready: info.Ready, Reason: info.Reason}
	}
	if m.draining.Load() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics merges the manager's families with every design's,
// stamped with the design label, into one Prometheus exposition.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m.publishGauges()
	fams := m.reg().Gather()
	for _, e := range m.list() {
		e.srv.publishGauges()
		fams = append(fams, e.srv.reg().Gather(obs.Label{Name: "design", Value: e.id})...)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_ = obs.WriteProm(w, fams)
}

func (m *Manager) handleMetricz(w http.ResponseWriter, r *http.Request) {
	m.publishGauges()
	designs := map[string]obs.Metrics{}
	for _, e := range m.list() {
		e.srv.publishGauges()
		designs[e.id] = e.srv.reg().Snapshot()
	}
	writeJSON(w, http.StatusOK, struct {
		Manager obs.Metrics            `json:"manager"`
		Designs map[string]obs.Metrics `json:"designs"`
	}{m.reg().Snapshot(), designs})
}

func (m *Manager) handleVersion(w http.ResponseWriter, r *http.Request) {
	type designVersion struct {
		DesignHash        string `json:"design_hash"`
		ConfigFingerprint string `json:"config_fingerprint"`
		Source            string `json:"source,omitempty"`
	}
	resp := struct {
		Build   cliutil.BuildInfo        `json:"build"`
		Designs map[string]designVersion `json:"designs"`
	}{cliutil.Build(), map[string]designVersion{}}
	for _, e := range m.list() {
		resp.Designs[e.id] = designVersion{
			DesignHash:        e.srv.DesignHash(),
			ConfigFingerprint: pao.ConfigFingerprint(e.srv.paoCfg),
			Source:            e.srv.Source(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// Start listens on cfg.Addr and serves in the background.
func (m *Manager) Start() error {
	ln, err := net.Listen("tcp", m.cfg.Addr)
	if err != nil {
		return err
	}
	m.ln = ln
	m.http = &http.Server{Handler: m.Handler()}
	go func() {
		if err := m.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			m.Logger.Error("serve error", "err", err)
		}
	}()
	if m.cfg.SnapshotInterval > 0 {
		go m.snapshotLoop()
	}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (m *Manager) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// snapshotLoop periodically snapshots every ready design (a no-op for one
// without a snapshot path).
func (m *Manager) snapshotLoop() {
	t := time.NewTicker(m.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for _, e := range m.list() {
				if DesignState(e.state.Load()) == DesignReady {
					_ = e.srv.WriteSnapshot(m.bgCtx)
				}
			}
		case <-m.bgCtx.Done():
			return
		}
	}
}

// Shutdown drains in-flight requests (bounded by DrainTimeout), cancels
// background work (an in-flight warm restart or re-analysis aborts), then
// writes a final snapshot for every ready design — SIGTERM becomes a clean
// handoff of the whole registry to the next process.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.draining.Store(true)
	var first error
	if m.http != nil {
		dctx, cancel := context.WithTimeout(ctx, m.cfg.DrainTimeout)
		defer cancel()
		if err := m.http.Shutdown(dctx); err != nil {
			first = err
		}
	}
	m.bgCancel()
	// The final snapshots must not inherit the drain deadline's cancellation
	// if requests drained cleanly; give them their own bounded context.
	sctx, cancel := context.WithTimeout(context.Background(), m.cfg.DrainTimeout)
	defer cancel()
	for _, e := range m.list() {
		e.srv.bgCancel()
		if DesignState(e.state.Load()) != DesignReady {
			continue
		}
		if err := e.srv.WriteSnapshot(sctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
