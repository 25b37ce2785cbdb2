package pao

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Fault-hook site names. The hooks exist for the deterministic fault
// injector (internal/faultinject) and stay nil in production.
const (
	// SiteAnalyzeUnique fires before each class's Step-1/2 analysis, inside
	// the per-class recovery: a panic here quarantines the class.
	SiteAnalyzeUnique = "pao.analyzeUnique"
	// SiteWorkerItem fires before each item in the pooled Step-1/2 path,
	// outside the per-class recovery: a panic here kills the worker
	// goroutine and exercises the respawn path. Not reached when Workers <= 1.
	SiteWorkerItem = "pao.worker.item"
	// SiteSelectCluster fires before each cluster's Step-3 DP.
	SiteSelectCluster = "pao.selectForCluster"
	// SiteFailedPins fires once at the start of failed-pin accounting.
	SiteFailedPins = "pao.countFailedPins"
)

// Analyzer runs the three-step pin access analysis over a placed design.
type Analyzer struct {
	Design *db.Design
	Cfg    Config

	// Obs receives spans and worker telemetry when set (before the first
	// Run/AnalyzeUnique call). Nil disables the deep instrumentation; the
	// coarse per-step durations in Stats.Steps are always populated.
	Obs *obs.Observer
	// DRC accumulates the DRC engine counters of every engine the analyzer
	// creates (per-cell contexts and the global engine). Always non-nil.
	DRC *drc.Counters

	// FaultHook, when set before a run, is invoked at the Site* pipeline
	// points with the site name and a detail string (class signature or
	// cluster id). Test-only: internal/faultinject uses it to inject panics
	// and delays deterministically.
	FaultHook func(site, detail string)
	// DRCFaultHook, when set before a run, is installed on every DRC engine
	// the analyzer creates; the detail is the owning class signature for
	// cell engines and "global" for the global engine, keeping injection
	// deterministic across worker schedules.
	DRCFaultHook func(site, detail string) []drc.Violation

	// Rec, when set before a run, receives a decision record at every Step-1
	// candidate validation, Step-2 pattern iteration and Step-3 selection
	// (explain.go). Nil by default; every call site gates on it, so the hot
	// path pays nothing when disabled. With Workers > 1 the recorder must be
	// goroutine-safe.
	Rec DecisionRecorder

	// viaCache is the shared via-drop verdict memo attached to every DRC
	// engine the analyzer creates (content-keyed, so per-cell contexts and
	// the global engine can share it). Nil when Config.NoCache is set.
	viaCache *drc.ViaCache
	// pairs memoizes ViaPairClean for Step-2 pattern validation and Step-3
	// edge costs. Nil when Config.NoCache is set.
	pairs *pairCache

	// netOf maps (instance ID, pin name) to a net index (>= 1). Pins not on
	// any net receive fresh pseudo-net indexes so that they still conflict
	// with everything else but never with themselves.
	netOf map[termKey]int
	// nextPseudo is the next free pseudo-net index.
	nextPseudo int

	// step1NS/step2NS accumulate per-step CPU time across workers for the
	// current Run (reset at Run start).
	step1NS, step2NS atomic.Int64
}

type termKey struct {
	inst int
	pin  string
}

// NewAnalyzer builds an analyzer for the design with the given configuration.
func NewAnalyzer(d *db.Design, cfg Config) *Analyzer {
	a := &Analyzer{Design: d, Cfg: cfg.normalized(), DRC: &drc.Counters{}, netOf: make(map[termKey]int)}
	if !a.Cfg.NoCache {
		a.viaCache = drc.NewViaCache()
		a.pairs = newPairCache(d.Tech)
	}
	for idx, net := range d.Nets {
		for _, t := range net.Terms {
			a.netOf[termKey{t.Inst.ID, t.Pin.Name}] = idx + 1
		}
	}
	a.nextPseudo = len(d.Nets) + 1
	return a
}

// PublishObs folds the analyzer's accumulated DRC counters (including the
// via-verdict cache hit/miss counts) and the pair-cache counters
// into the observer's registry. Call once per analyzer, after its last Run.
func (a *Analyzer) PublishObs() {
	if reg := a.Obs.Reg(); reg != nil {
		reg.AddAll(a.LiveCounters())
	}
}

// LiveCounters returns the analyzer's accumulated counters as of now. Safe to
// call while a run executes (everything underneath is atomic), which is what
// a mid-run -metrics-listen scrape folds into its exposition — PublishObs
// moves the same totals into the registry permanently once the run is done.
func (a *Analyzer) LiveCounters() map[string]int64 {
	m := a.DRC.Snapshot()
	if a.pairs != nil {
		m["pao.paircache.hit"] = a.pairs.hits.Load()
		m["pao.paircache.miss"] = a.pairs.misses.Load()
	}
	return m
}

// CacheStats is a snapshot of the analyzer's memoization counters: the shared
// via-drop verdict cache (drc layer) and the via-pair cache (Step 2/3).
type CacheStats struct {
	ViaHits, ViaMisses   int64
	PairHits, PairMisses int64
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ViaHitRate is the via-verdict cache hit rate.
func (s CacheStats) ViaHitRate() float64 { return hitRate(s.ViaHits, s.ViaMisses) }

// PairHitRate is the via-pair cache hit rate.
func (s CacheStats) PairHitRate() float64 { return hitRate(s.PairHits, s.PairMisses) }

// CacheStats reports the analyzer's cache counters accumulated so far.
func (a *Analyzer) CacheStats() CacheStats {
	s := CacheStats{
		ViaHits:   a.DRC.CacheHits.Load(),
		ViaMisses: a.DRC.CacheMisses.Load(),
	}
	if a.pairs != nil {
		s.PairHits = a.pairs.hits.Load()
		s.PairMisses = a.pairs.misses.Load()
	}
	return s
}

// NetOf returns the net index of an instance pin, allocating a pseudo net for
// unconnected pins (stable across calls).
func (a *Analyzer) NetOf(inst *db.Instance, pin *db.MPin) int {
	k := termKey{inst.ID, pin.Name}
	if n, ok := a.netOf[k]; ok {
		return n
	}
	n := a.nextPseudo
	a.nextPseudo++
	a.netOf[k] = n
	return n
}

// cellEngine builds the isolated intra-cell DRC context for a unique
// instance: the pivot member's own pin shapes (each signal pin on its own
// pseudo net so two pins of the cell conflict with each other but a pin never
// conflicts with itself) plus obstructions and power/ground shapes as NoNet
// blockages. Steps 1 and 2 validate against this context only, so their
// results transfer to every member of the class; inter-cell interactions are
// Step 3's job.
func (a *Analyzer) cellEngine(ui *db.UniqueInstance) (*drc.Engine, map[string]int) {
	eng := drc.NewEngine(a.Design.Tech)
	eng.Counters = a.DRC
	if hook := a.DRCFaultHook; hook != nil {
		sig := ui.Signature()
		eng.FaultHook = func(site string) []drc.Violation { return hook(site, sig) }
	}
	pivot := ui.Pivot()
	eng.Grow(numShapes(pivot.Master))
	nets := make(map[string]int)
	nextNet := 1
	for _, pin := range pivot.Master.Pins {
		net := drc.NoNet
		if pin.Use == db.UseSignal || pin.Use == db.UseClock {
			net = nextNet
			nextNet++
			nets[pin.Name] = net
		}
		for _, s := range pivot.PinShapes(pin) {
			eng.AddMetal(s.Layer, s.Rect, net, drc.KindPin, "")
		}
	}
	for _, s := range pivot.ObsShapes() {
		eng.AddMetal(s.Layer, s.Rect, drc.NoNet, drc.KindObs, "")
	}
	// The engine is frozen from here on: fold the construction churn into the
	// dense index before queries fan out.
	eng.Compact()
	eng.AttachViaCache(a.viaCache)
	return eng, nets
}

// GlobalEngine indexes every fixed shape of the design (instance pins with
// their real nets, obstructions and power shapes as blockages, IO pins) for
// Step-3 inter-cell checks and failed-pin accounting.
func (a *Analyzer) GlobalEngine() *drc.Engine {
	return a.globalEngine(a.viaCache, nil)
}

// globalEngine is GlobalEngine with an explicit verdict cache (nil for none:
// the ECO failed-pin engine re-validates too few vias to need one) and
// an optional per-object callback that reports which instance contributed
// each engine object — the ECO engines use it to remove exactly an instance's
// shapes later. IO-pin objects are not reported (they never mutate).
func (a *Analyzer) globalEngine(cache *drc.ViaCache, record func(inst *db.Instance, objID int)) *drc.Engine {
	eng := drc.NewEngine(a.Design.Tech)
	eng.Counters = a.DRC
	if hook := a.DRCFaultHook; hook != nil {
		eng.FaultHook = func(site string) []drc.Violation { return hook(site, "global") }
	}
	shapes := len(a.Design.IOPins)
	for _, inst := range a.Design.Instances {
		shapes += numShapes(inst.Master)
	}
	eng.Grow(shapes)
	for _, inst := range a.Design.Instances {
		for _, id := range a.addInstanceShapes(eng, inst) {
			if record != nil {
				record(inst, id)
			}
		}
	}
	for _, io := range a.Design.IOPins {
		eng.AddMetal(io.Shape.Layer, io.Shape.Rect, a.ioNet(io), drc.KindIOPin, io.Name)
	}
	eng.Compact() // bulk construction done; Step-3 queries fan out from here
	eng.AttachViaCache(cache)
	return eng
}

// numShapes counts a master's pin and obstruction shapes: the engine objects
// one placed instance adds.
func numShapes(m *db.Master) int {
	n := len(m.Obs)
	for _, pin := range m.Pins {
		n += len(pin.Shapes)
	}
	return n
}

// addInstanceShapes registers one instance's pin and obstruction shapes with
// the engine exactly as the global engine does, returning the object IDs.
func (a *Analyzer) addInstanceShapes(eng *drc.Engine, inst *db.Instance) []int {
	var ids []int
	for _, pin := range inst.Master.Pins {
		net := drc.NoNet
		if pin.Use == db.UseSignal || pin.Use == db.UseClock {
			net = a.NetOf(inst, pin)
		}
		for _, s := range inst.PinShapes(pin) {
			ids = append(ids, eng.AddMetal(s.Layer, s.Rect, net, drc.KindPin, ""))
		}
	}
	for _, s := range inst.ObsShapes() {
		ids = append(ids, eng.AddMetal(s.Layer, s.Rect, drc.NoNet, drc.KindObs, ""))
	}
	return ids
}

func (a *Analyzer) ioNet(io *db.IOPin) int {
	for idx, net := range a.Design.Nets {
		for _, p := range net.IOPins {
			if p == io {
				return idx + 1
			}
		}
	}
	return drc.NoNet
}

// AnalyzeUnique runs Steps 1 and 2 for one unique instance.
func (a *Analyzer) AnalyzeUnique(ui *db.UniqueInstance) *UniqueAccess {
	var parent *obs.Span
	if a.Obs != nil {
		parent = a.Obs.Root()
	}
	return a.analyzeUnique(context.Background(), ui, parent, nil)
}

// analyzeUnique is AnalyzeUnique with an explicit span parent: when non-nil,
// an aggregated child span per unique instance is created under it, with
// per-pin DRC-validation leaves below. Step 1/2 CPU time always accumulates
// into the analyzer's per-Run totals. A cancelled ctx abandons the class and
// returns nil, so a partial result never contains half-analyzed access data;
// curPin, when non-nil, tracks the pin in flight for panic reports.
func (a *Analyzer) analyzeUnique(ctx context.Context, ui *db.UniqueInstance, parent *obs.Span, curPin *string) *UniqueAccess {
	t0 := time.Now()
	var sp *obs.Span
	if parent != nil {
		sp = parent.Agg("ui:" + ui.Signature())
	}
	eng, nets := a.cellEngine(ui)
	qc := eng.NewQueryCtx()
	pivot := ui.Pivot()
	ua := &UniqueAccess{UI: ui, PivotPos: pivot.Pos}
	for _, pin := range pivot.Master.SignalPins() {
		if ctx.Err() != nil {
			return nil
		}
		if curPin != nil {
			*curPin = pin.Name
		}
		var tp time.Time
		if sp != nil {
			tp = time.Now()
		}
		pa := a.genAccessPoints(eng, qc, pivot, pin, nets[pin.Name])
		if sp != nil {
			sp.AddTime("pin:"+pin.Name, time.Since(tp))
		}
		ua.Pins = append(ua.Pins, pa)
	}
	if curPin != nil {
		*curPin = ""
	}
	t1 := time.Now()
	a.orderPins(ua)
	a.genPatterns(ua)
	t2 := time.Now()
	a.step1NS.Add(t1.Sub(t0).Nanoseconds())
	a.step2NS.Add(t2.Sub(t1).Nanoseconds())
	sp.AddDur(t2.Sub(t0))
	return ua
}

// safeAnalyzeUnique runs Steps 1-2 for one class with panic quarantine: a
// panicking class is recorded as failed in the health report and the run
// continues with every other class intact.
func (a *Analyzer) safeAnalyzeUnique(ctx context.Context, ui *db.UniqueInstance, parent *obs.Span,
	uas []*UniqueAccess, i int, h *Health) {

	sig := ui.Signature()
	var curPin string
	defer func() {
		if r := recover(); r != nil {
			uas[i] = nil
			h.recordClass(sig, StatusFailed, &PipelineError{
				Step: StepAnalyze, Signature: sig, Pin: curPin,
				Recovered: r, Stack: string(debug.Stack()),
			})
		}
	}()
	if hook := a.FaultHook; hook != nil {
		hook(SiteAnalyzeUnique, sig)
	}
	uas[i] = a.analyzeUnique(ctx, ui, parent, &curPin)
}

// workerRun drains unique-instance indexes from next, recording per-goroutine
// busy time and queue wait when telemetry is enabled. It returns true when
// the channel is exhausted or the context cancelled, and false when a panic
// escaped the per-class recovery and killed the worker (the in-flight class
// is recorded as failed; the caller respawns a replacement).
func (a *Analyzer) workerRun(ctx context.Context, next <-chan int, uis []*db.UniqueInstance,
	uas []*UniqueAccess, sp12 *obs.Span, busyTotal *atomic.Int64, h *Health) (done bool) {

	reg := a.Obs.Reg()
	var busy, wait time.Duration
	cur := -1
	defer func() {
		if reg != nil {
			busyTotal.Add(busy.Nanoseconds())
			reg.Histogram("pao.step12.worker.busy").Observe(busy)
			reg.Histogram("pao.step12.worker.wait").Observe(wait)
		}
		if r := recover(); r != nil {
			perr := &PipelineError{Step: StepWorker, Recovered: r, Stack: string(debug.Stack())}
			if cur >= 0 {
				perr.Signature = uis[cur].Signature()
				uas[cur] = nil
				h.recordClass(perr.Signature, StatusFailed, perr)
			} else {
				h.record(perr)
			}
		}
	}()
	for {
		var i int
		var ok bool
		tw := time.Time{}
		if reg != nil {
			tw = time.Now()
		}
		select {
		case i, ok = <-next:
		case <-ctx.Done():
			return true
		}
		if reg != nil {
			wait += time.Since(tw)
		}
		if !ok {
			return true
		}
		cur = i
		if hook := a.FaultHook; hook != nil {
			hook(SiteWorkerItem, uis[i].Signature())
		}
		if reg != nil {
			tb := time.Now()
			a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h)
			busy += time.Since(tb)
		} else {
			a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h)
		}
		cur = -1
	}
}

// runStep12 executes the per-unique-instance analysis under ctx: sequential
// when the effective worker count is 1, otherwise a channel-fed pool whose
// workers are respawned if a panic escapes the per-class recovery.
func (a *Analyzer) runStep12(ctx context.Context, uis []*db.UniqueInstance, uas []*UniqueAccess,
	sp12 *obs.Span, busyTotal *atomic.Int64, h *Health) {

	reg := a.Obs.Reg()
	w := a.Cfg.workers()
	if w == 1 {
		var busy time.Duration
		for i := range uis {
			if ctx.Err() != nil || a.abort(h) {
				break
			}
			if reg != nil {
				tb := time.Now()
				a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h)
				busy += time.Since(tb)
			} else {
				a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h)
			}
		}
		if reg != nil {
			busyTotal.Add(busy.Nanoseconds())
			reg.Histogram("pao.step12.worker.busy").Observe(busy)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Respawn loop: a worker killed by an escaped panic is replaced
			// immediately, so the pool never silently shrinks.
			for !a.workerRun(ctx, next, uis, uas, sp12, busyTotal, h) {
				h.noteRespawn()
			}
		}()
	}
feed:
	for i := range uis {
		if a.abort(h) {
			break
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// abort reports whether the fail-fast policy wants the run stopped now.
func (a *Analyzer) abort(h *Health) bool {
	return a.Cfg.FailFast && h.errCount() > 0
}

// runErr translates the context state and the fail-fast policy into the
// error RunContext returns, latching cancellation into the health report.
func (a *Analyzer) runErr(ctx context.Context, h *Health) error {
	if err := ctx.Err(); err != nil {
		h.markCancelled()
		return err
	}
	if a.Cfg.FailFast {
		if errs := h.Errors(); len(errs) > 0 {
			return errs[0]
		}
	}
	return nil
}

// Run executes the full three-step flow. It is RunContext without a deadline;
// fault quarantine still applies (inspect Result.Health), only cancellation
// and fail-fast errors are unreachable.
func (a *Analyzer) Run() *Result {
	res, _ := a.RunContext(context.Background())
	return res
}

// RunContext executes the full three-step flow under ctx. When Cfg.Workers > 1
// the per-unique-instance analysis (Steps 1 and 2) fans out across goroutines;
// classes are independent, so the result is identical to the sequential run.
//
// Failure semantics: a panic inside one class's analysis or one cluster's
// selection is recovered and quarantined into Result.Health — the run
// continues and every healthy class is unaffected. Cancellation (deadline,
// SIGINT plumbed via ctx) stops work at the next per-class/per-cluster check;
// the partial Result is still returned, with Health.Cancelled() set, alongside
// ctx.Err(). The Result is never nil.
func (a *Analyzer) RunContext(ctx context.Context) (*Result, error) {
	tRun := time.Now()
	a.step1NS.Store(0)
	a.step2NS.Store(0)
	reg := a.Obs.Reg()
	spRun := a.Obs.Root().Start("pao.run")
	ctx, corr := telemetry.EnsureCorrID(ctx)
	res := &Result{
		CorrID:     corr,
		ByInstance: make(map[int]*UniqueAccess),
		Selected:   make(map[int]int),
		Health:     newHealth(),
	}
	h := res.Health
	uis := a.Design.UniqueInstances()
	uas := make([]*UniqueAccess, len(uis))
	sp12 := spRun.Start("pao.step12")
	t12 := time.Now()
	var busyTotal atomic.Int64
	a.runStep12(ctx, uis, uas, sp12, &busyTotal, h)
	step12Wall := time.Since(t12)
	sp12.End()
	for i, ui := range uis {
		if uas[i] == nil {
			// Failed or never analyzed (cancellation): the class has no
			// access data; its pins count as failed downstream.
			continue
		}
		foldClass(res, ui, uas[i])
	}

	var selDur, failDur time.Duration
	finish := func() {
		spRun.End()
		res.Stats.Steps = StepTimes{
			Step1:      time.Duration(a.step1NS.Load()),
			Step2:      time.Duration(a.step2NS.Load()),
			Step12Wall: step12Wall,
			Step3:      selDur,
			FailedPins: failDur,
			Total:      time.Since(tRun),
		}
		if reg != nil {
			w := a.Cfg.workers()
			reg.Gauge("pao.workers").Set(float64(w))
			if wall := step12Wall.Nanoseconds(); wall > 0 {
				reg.Gauge("pao.workers.utilization").Set(
					float64(busyTotal.Load()) / (float64(wall) * float64(w)))
			}
			reg.Counter("pao.step12.items").Add(int64(len(uis)))
			h.publish(reg)
		}
	}
	if err := a.runErr(ctx, h); err != nil {
		finish()
		return res, err
	}
	spEng := spRun.Start("pao.globalengine")
	eng := a.GlobalEngine()
	spEng.End()
	spSel := spRun.Start("pao.step3.select")
	tSel := time.Now()
	a.selectPatterns(ctx, res, eng, h)
	selDur = time.Since(tSel)
	spSel.End()
	if err := a.runErr(ctx, h); err != nil {
		finish()
		return res, err
	}
	spFail := spRun.Start("pao.failedpins")
	tFail := time.Now()
	a.countFailedPins(ctx, res, eng, h)
	failDur = time.Since(tFail)
	spFail.End()
	finish()
	return res, a.runErr(ctx, h)
}

// CountDirtyAPs re-validates every access point's primary via against the
// isolated cell context using the full DRC engine and returns the number
// carrying violations — the Table II "#Dirty APs" metric. PAAF results are
// zero by construction (Step 1 only emits validated points); baselines that
// skip real DRC validation score higher.
func (a *Analyzer) CountDirtyAPs(res *Result) int {
	dirty := 0
	for _, ua := range res.Unique {
		eng, nets := a.cellEngine(ua.UI)
		pivot := ua.UI.Pivot()
		for _, pa := range ua.Pins {
			rects := pinRectsByLayer(pivot, pa.Pin)
			for _, ap := range pa.APs {
				v := ap.Primary()
				if v == nil {
					continue
				}
				if len(eng.CheckVia(v, ap.Pos, nets[pa.Pin.Name], rects[ap.Layer])) > 0 {
					dirty++
				}
			}
		}
	}
	return dirty
}

func pinRectsByLayer(inst *db.Instance, pin *db.MPin) map[int][]geom.Rect {
	out := make(map[int][]geom.Rect)
	for _, s := range inst.PinShapes(pin) {
		out[s.Layer] = append(out[s.Layer], s.Rect)
	}
	return out
}

// appendPinRects appends the pin's shapes on the given layer, in the
// instance's design coordinates, to dst.
func appendPinRects(dst []geom.Rect, inst *db.Instance, pin *db.MPin, layer int) []geom.Rect {
	tr := inst.Transform()
	for _, s := range pin.Shapes {
		if s.Layer == layer {
			dst = append(dst, tr.ApplyRect(s.Rect))
		}
	}
	return dst
}
