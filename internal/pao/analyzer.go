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
	"repro/internal/tech"
)

// Fault-hook site names. The hooks exist for the deterministic fault
// injector (internal/faultinject) and stay nil in production.
const (
	// SiteAnalyzeUnique fires before each class's Step-1/2 analysis, inside
	// the per-class recovery: a panic here quarantines the class.
	SiteAnalyzeUnique = "pao.analyzeUnique"
	// SiteWorkerItem fires before each item in the Step-1/2 worker pool,
	// outside the per-class recovery: a panic here kills the worker
	// goroutine and exercises the respawn path, at any worker count.
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

	// obs receives spans and worker telemetry once Observe binds it. Nil
	// disables the deep instrumentation; the coarse per-step durations in
	// Stats.Steps are always populated.
	obs *obs.Observer
	// DRC is what every DRC engine the analyzer creates (per-cell contexts
	// and the global engine) counts into: the drc.* series of a private
	// registry, or of the observer's registry once Observe binds one.
	DRC drc.Counters

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

	// rec, set only by Explain, receives a decision record at every Step-1
	// candidate validation and Step-2 pattern iteration. Nil otherwise; every
	// call site gates on it, so the hot path builds no record.
	rec *explainRecorder

	// shortcutAudit, set only by tests, is called with every chosen via
	// Step 3 prices at its Step-1 verdict without a lookup (priceAPs), from
	// the Step-3 workers.
	shortcutAudit func(eng *drc.Engine, inst *db.Instance, ap *chosenAP)
	// ledgerAudit, set only by tests, is called with every via terminal the
	// failed-pin check keeps clean without a lookup (checkInstance), from
	// the ledger's workers.
	ledgerAudit func(eng *drc.Engine, tm *pinTerm)

	// viaCache is the shared via-drop verdict memo attached to every DRC
	// engine the analyzer creates (content-keyed, so per-cell contexts and
	// the global engine can share it). Nil when Config.NoCache is set.
	viaCache *drc.ViaCache

	// vias lists, per metal number, the via definitions whose cut sits
	// directly above it (Tech.ViasAbove, which allocates per call): Step 1
	// reads them for every pin and layer.
	vias [][]*tech.ViaDef

	// netOf holds the net index (>= 1) of every instance pin: netOf[inst.ID]
	// has one slot per master pin, in pin order. Pins on no net hold
	// pseudo-net indexes, so they still conflict with everything else but
	// never with themselves.
	netOf [][]int32
	// nextPseudo is the next free pseudo-net index.
	nextPseudo int32

	// step1NS/step2NS accumulate per-step CPU time across workers for the
	// current Run (reset at Run start).
	step1NS, step2NS atomic.Int64
}

// NewAnalyzer builds an analyzer for the design with the given configuration.
func NewAnalyzer(d *db.Design, cfg Config) *Analyzer {
	a := &Analyzer{Design: d, Cfg: cfg.normalized(), DRC: drc.NewCounters(nil)}
	if !a.Cfg.NoCache {
		a.viaCache = drc.NewViaCache()
	}
	a.vias = make([][]*tech.ViaDef, d.Tech.NumMetals()+1)
	for k := range a.vias {
		a.vias[k] = d.Tech.ViasAbove(k)
	}
	a.numberNets()
	return a
}

// numberNets fills netOf: a pin on net k gets k+1 (a pin listed on several
// nets keeps the last), then the pins on no net get pseudo nets from
// len(Nets)+1 on, signal and clock pins first, each pass in instance and pin
// order. Every instance's slots are carved from one backing array.
func (a *Analyzer) numberNets() {
	d := a.Design
	slots, maxID := 0, -1
	for _, inst := range d.Instances {
		slots += len(inst.Master.Pins)
		maxID = max(maxID, inst.ID)
	}
	flat := make([]int32, slots)
	a.netOf = make([][]int32, maxID+1)
	for _, inst := range d.Instances {
		n := len(inst.Master.Pins)
		a.netOf[inst.ID], flat = flat[:n:n], flat[n:]
	}
	for idx, net := range d.Nets {
		for _, t := range net.Terms {
			if k := pinIndex(t.Inst.Master.Pins, t.Pin); k >= 0 {
				a.netOf[t.Inst.ID][k] = int32(idx + 1)
			}
		}
	}
	a.nextPseudo = int32(len(d.Nets) + 1)
	for _, signal := range [2]bool{true, false} {
		for _, inst := range d.Instances {
			a.numberPseudo(inst, signal)
		}
	}
}

// numberPseudo gives each of inst's pins that is on no net, and is a signal
// or clock pin exactly when signal is set, the next pseudo net.
func (a *Analyzer) numberPseudo(inst *db.Instance, signal bool) {
	nets := a.netOf[inst.ID]
	for k, pin := range inst.Master.Pins {
		if nets[k] == 0 && isSignal(pin) == signal {
			nets[k] = a.nextPseudo
			a.nextPseudo++
		}
	}
}

// addNets numbers the pins of an instance added to the design after
// NewAnalyzer (an ECO insert), which is on no net: pseudo nets as
// numberNets gives them.
func (a *Analyzer) addNets(inst *db.Instance) {
	if inst.ID >= len(a.netOf) {
		a.netOf = append(a.netOf, make([][]int32, inst.ID+1-len(a.netOf))...)
	}
	a.netOf[inst.ID] = make([]int32, len(inst.Master.Pins))
	a.numberPseudo(inst, true)
	a.numberPseudo(inst, false)
}

// isSignal reports whether a pin carries a signal or clock: the pins that
// get access points and their own nets in the cell context.
func isSignal(pin *db.MPin) bool { return pin.Use == db.UseSignal || pin.Use == db.UseClock }

// pinIndex returns the position of pin in pins, or -1.
func pinIndex(pins []*db.MPin, pin *db.MPin) int {
	for k, p := range pins {
		if p == pin {
			return k
		}
	}
	return -1
}

// Observe binds the analyzer to o; call it before the first run. Spans and
// worker telemetry go to o's trace and registry, and DRC becomes the
// registry's drc.* series, so every engine the analyzer builds from then on
// counts straight into what o reports and a scrape of it reads. A nil o
// leaves the analyzer unobserved.
func (a *Analyzer) Observe(o *obs.Observer) {
	a.obs = o
	if reg := o.Reg(); reg != nil {
		a.DRC = drc.NewCounters(reg)
	}
}

// LiveCounters returns the analyzer's DRC counters as of now. Safe to call
// while a run executes: every counter is atomic.
func (a *Analyzer) LiveCounters() map[string]int64 {
	return a.DRC.Snapshot()
}

// NetOf returns the net index of an instance pin; a pin on no net has its
// own pseudo net. pin must be one of inst.Master's pins. NetOf only reads,
// so concurrent calls are safe.
func (a *Analyzer) NetOf(inst *db.Instance, pin *db.MPin) int {
	k := pinIndex(inst.Master.Pins, pin)
	if k < 0 {
		panic("pao: NetOf: " + pin.Name + " is not a pin of " + inst.Master.Name)
	}
	return int(a.netOf[inst.ID][k])
}

// cellScratch is one Step-1/2 worker's reusable state: the cell engine that
// fill refills for every class the worker analyzes, its query context, the
// filled class's per-pin cell nets, a shape buffer and Step 1's candidate
// state. Scratch lives per worker and per run; a class that panics leaves it
// to the next fill, whose Engine.Reset restores a consistent empty engine,
// and to the next pin, whose Step 1 resets the candidate state.
type cellScratch struct {
	eng    *drc.Engine
	qc     *drc.QueryCtx
	pins   []*db.MPin // the filled class's master pins
	nets   []int      // cell net per pin, in pins order
	shapes []db.Shape

	// Step 1 (step1.go). Per pin: its layers and the access points
	// accepted so far. Per pin and layer: its shapes, their maximal
	// rectangles, the tracks, each rectangle's candidate coordinates and the
	// points already tried. Per candidate: its via verdicts and clean vias.
	layers                    []int
	aps                       []*AccessPoint
	pinRects                  []geom.Rect
	maxRects                  geom.MaxRectsScratch
	prefTracks, nonPrefTracks []db.TrackPattern
	pref, nonPref             []coordCandidates
	seen                      map[geom.Point]struct{}
	verdicts                  []ViaAudit
	clean                     []*tech.ViaDef
}

// newCellScratch returns an empty scratch counting into a.DRC.
func (a *Analyzer) newCellScratch() *cellScratch {
	eng := drc.NewEngine(a.Design.Tech)
	eng.Counters = a.DRC
	return &cellScratch{eng: eng, qc: eng.NewQueryCtx(), seen: make(map[geom.Point]struct{})}
}

// fill makes sc.eng the isolated intra-cell DRC context of a unique
// instance: the pivot member's own pin shapes (each signal pin on its own
// cell net, so two pins of the cell conflict with each other but a pin never
// conflicts with itself) plus obstructions and power/ground shapes as NoNet
// blockages. Steps 1 and 2 validate against this context only, so their
// results transfer to every member of the class; inter-cell interactions are
// Step 3's job.
func (a *Analyzer) fill(sc *cellScratch, ui *db.UniqueInstance) {
	eng := sc.eng
	eng.Reset()
	if hook := a.DRCFaultHook; hook != nil {
		sig := ui.Signature()
		eng.FaultHook = func(site string) []drc.Violation { return hook(site, sig) }
	}
	pivot := ui.Pivot()
	eng.Grow(numShapes(pivot.Master))
	sc.pins = pivot.Master.Pins
	sc.nets = sc.nets[:0]
	nextNet := 1
	for _, pin := range sc.pins {
		net := drc.NoNet
		if isSignal(pin) {
			net = nextNet
			nextNet++
		}
		sc.nets = append(sc.nets, net)
		sc.shapes = pivot.AppendPinShapes(sc.shapes[:0], pin)
		for _, s := range sc.shapes {
			eng.AddMetal(s.Layer, s.Rect, net, drc.KindPin, "")
		}
	}
	sc.shapes = pivot.AppendObsShapes(sc.shapes[:0])
	for _, s := range sc.shapes {
		eng.AddMetal(s.Layer, s.Rect, drc.NoNet, drc.KindObs, "")
	}
	// The engine is frozen from here on: fold the construction churn into the
	// dense index before queries fan out.
	eng.Compact()
	eng.AttachViaCache(a.viaCache)
}

// netOf returns the cell net of one of the filled class's pins.
func (sc *cellScratch) netOf(pin *db.MPin) int {
	if k := pinIndex(sc.pins, pin); k >= 0 {
		return sc.nets[k]
	}
	return drc.NoNet
}

// GlobalEngine indexes every fixed shape of the design (instance pins with
// their real nets, obstructions and power shapes as blockages, IO pins) for
// Step-3 inter-cell checks and failed-pin accounting.
func (a *Analyzer) GlobalEngine() *drc.Engine {
	eng, _ := a.globalEngine(0)
	return eng
}

// globalEngine is GlobalEngine with room reserved for extra more objects, so
// the failed-pin vias placed later do not regrow the engine's columns, and
// returned with the first-object table of its instances (see newFirsts);
// IO-pin objects are in no table (they never mutate).
func (a *Analyzer) globalEngine(extra int) (*drc.Engine, []int32) {
	eng := drc.NewEngine(a.Design.Tech)
	eng.Counters = a.DRC
	if hook := a.DRCFaultHook; hook != nil {
		eng.FaultHook = func(site string) []drc.Violation { return hook(site, "global") }
	}
	shapes := len(a.Design.IOPins) + extra
	for _, inst := range a.Design.Instances {
		shapes += numShapes(inst.Master)
	}
	eng.Grow(shapes)
	firsts := newFirsts(len(a.netOf))
	var buf []db.Shape
	for _, inst := range a.Design.Instances {
		var objs objSpan
		objs, buf = a.addInstanceShapes(eng, inst, buf)
		firsts[inst.ID] = objs.first
	}
	ioNet := make(map[*db.IOPin]int, len(a.Design.IOPins))
	for idx, net := range a.Design.Nets {
		for _, io := range net.IOPins {
			if _, seen := ioNet[io]; !seen {
				ioNet[io] = idx + 1
			}
		}
	}
	for _, io := range a.Design.IOPins {
		net, ok := ioNet[io]
		if !ok {
			net = drc.NoNet
		}
		eng.AddMetal(io.Shape.Layer, io.Shape.Rect, net, drc.KindIOPin, io.Name)
	}
	eng.Compact() // bulk construction done; Step-3 queries fan out from here
	eng.AttachViaCache(a.viaCache)
	return eng, firsts
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

// objSpan is the run of consecutive engine object IDs [first, first+n) that
// one instance's shapes occupy.
type objSpan struct{ first, n int32 }

// newFirsts returns a first-object table over instance IDs 0..n-1 with no
// instance located (-1). Such a table locates each instance's fixed shapes in
// one engine: firsts[inst.ID] is the first of the consecutive object IDs
// addInstanceShapes gave them, numShapes(inst.Master) in all.
func newFirsts(n int) []int32 {
	f := make([]int32, n)
	for i := range f {
		f[i] = -1
	}
	return f
}

// spanIn returns the objects inst's shapes occupy per the first-object table
// firsts; n is 0 when the table does not locate them.
func spanIn(firsts []int32, inst *db.Instance) objSpan {
	if inst.ID >= len(firsts) || firsts[inst.ID] < 0 {
		return objSpan{}
	}
	return objSpan{first: firsts[inst.ID], n: int32(numShapes(inst.Master))}
}

// add extends the span by the next object ID (Engine.Add hands them out
// consecutively).
func (s *objSpan) add(id int) {
	if s.n == 0 {
		s.first = int32(id)
	}
	s.n++
}

// remove takes the span's objects out of eng, calling note (when non-nil)
// with each ID first.
func (s objSpan) remove(eng *drc.Engine, note func(id int)) {
	for id := int(s.first); id < int(s.first+s.n); id++ {
		if note != nil {
			note(id)
		}
		eng.Remove(id)
	}
}

// addInstanceShapes registers one instance's pin and obstruction shapes with
// the engine exactly as the global engine does and returns the span of
// object IDs they took. buf is shape scratch, returned for reuse.
func (a *Analyzer) addInstanceShapes(eng *drc.Engine, inst *db.Instance, buf []db.Shape) (objSpan, []db.Shape) {
	var span objSpan
	for k, pin := range inst.Master.Pins {
		net := drc.NoNet
		if isSignal(pin) {
			net = int(a.netOf[inst.ID][k])
		}
		buf = inst.AppendPinShapes(buf[:0], pin)
		for _, s := range buf {
			span.add(eng.AddMetal(s.Layer, s.Rect, net, drc.KindPin, ""))
		}
	}
	buf = inst.AppendObsShapes(buf[:0])
	for _, s := range buf {
		span.add(eng.AddMetal(s.Layer, s.Rect, drc.NoNet, drc.KindObs, ""))
	}
	return span, buf
}

// AnalyzeUnique runs Steps 1 and 2 for one unique instance.
func (a *Analyzer) AnalyzeUnique(ui *db.UniqueInstance) *UniqueAccess {
	var parent *obs.Span
	if a.obs != nil {
		parent = a.obs.Root()
	}
	return a.analyzeUnique(context.Background(), ui, parent, nil, a.newCellScratch())
}

// analyzeUnique is AnalyzeUnique with an explicit span parent: when non-nil,
// an aggregated child span per unique instance is created under it, with
// per-pin DRC-validation leaves below. Step 1/2 CPU time always accumulates
// into the analyzer's per-Run totals. A cancelled ctx abandons the class and
// returns nil, so a partial result never contains half-analyzed access data;
// curPin, when non-nil, tracks the pin in flight for panic reports. The
// class's cell engine is built in sc.
func (a *Analyzer) analyzeUnique(ctx context.Context, ui *db.UniqueInstance, parent *obs.Span, curPin *string, sc *cellScratch) *UniqueAccess {
	t0 := time.Now()
	var sp *obs.Span
	if parent != nil {
		sp = parent.Agg("ui:" + ui.Signature())
	}
	a.fill(sc, ui)
	pivot := ui.Pivot()
	ua := &UniqueAccess{UI: ui, PivotPos: pivot.Pos}
	for k, pin := range sc.pins {
		if !isSignal(pin) {
			continue
		}
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
		pa := a.genAccessPoints(sc, pivot, pin, sc.nets[k])
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

// safeAnalyzeUnique runs Steps 1-2 for one class in the worker's scratch
// with panic quarantine: a panicking class is recorded as failed in the
// health report and the run continues with every other class intact.
func (a *Analyzer) safeAnalyzeUnique(ctx context.Context, ui *db.UniqueInstance, parent *obs.Span,
	uas []*UniqueAccess, i int, h *Health, sc *cellScratch) {

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
	uas[i] = a.analyzeUnique(ctx, ui, parent, &curPin, sc)
}

// workerRun drains unique-instance indexes from next, analyzing each class in
// sc and recording per-goroutine busy time and queue wait when telemetry is
// enabled. It returns true when the channel is exhausted or the context
// cancelled, and false when a panic escaped the per-class recovery and killed
// the worker (the in-flight class is recorded as failed; the caller respawns
// a replacement on the same scratch).
func (a *Analyzer) workerRun(ctx context.Context, next <-chan int, uis []*db.UniqueInstance,
	uas []*UniqueAccess, sp12 *obs.Span, busyTotal *atomic.Int64, h *Health, sc *cellScratch) (done bool) {

	reg := a.obs.Reg()
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
				h.Record(perr)
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
		if a.abort(h) {
			continue // fail-fast: start no class after a fault; the feeder stops next
		}
		cur = i
		if hook := a.FaultHook; hook != nil {
			hook(SiteWorkerItem, uis[i].Signature())
		}
		if reg != nil {
			tb := time.Now()
			a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h, sc)
			busy += time.Since(tb)
		} else {
			a.safeAnalyzeUnique(ctx, uis[i], sp12, uas, i, h, sc)
		}
		cur = -1
	}
}

// analyzeClasses is the Step-1/2 class driver RunContext and AnalyzeClasses
// share: it analyzes uis on a channel-fed pool of the configured worker count,
// each worker refilling one scratch cell engine for every class it takes and
// respawned on that scratch if a panic escapes the per-class recovery, then
// folds every analyzed class into res in uis order. A class that failed or was
// never reached (cancellation) has no access data; its pins count as failed
// downstream. sp12, when non-nil, parents the per-class spans. It returns the
// workers' summed busy time, which is only measured with telemetry on.
func (a *Analyzer) analyzeClasses(ctx context.Context, res *Result, uis []*db.UniqueInstance, sp12 *obs.Span) time.Duration {
	h := res.Health
	uas := make([]*UniqueAccess, len(uis))
	var busy atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < a.Cfg.workers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := a.newCellScratch()
			// Respawn loop: a worker killed by an escaped panic is replaced
			// immediately, so the pool never silently shrinks.
			for !a.workerRun(ctx, next, uis, uas, sp12, &busy, h, sc) {
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
	for i, ui := range uis {
		if uas[i] != nil {
			foldClass(res, ui, uas[i])
		}
	}
	return time.Duration(busy.Load())
}

// abort reports whether the fail-fast policy wants the run stopped now.
func (a *Analyzer) abort(h *Health) bool {
	return a.Cfg.FailFast && h.errCount() > 0
}

// runErr translates the context state and the fail-fast policy into the
// error RunContext returns, latching cancellation into the health report.
func (a *Analyzer) runErr(ctx context.Context, h *Health) error {
	if err := ctx.Err(); err != nil {
		h.MarkCancelled()
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

// RunContext executes the full three-step flow under ctx. Steps 1 and 2 fan
// out per unique instance, Step 3 per row cluster and the failed-pin check per
// instance, each across Cfg.Workers goroutines; the work items are independent,
// so the result is identical at every worker count.
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
	reg := a.obs.Reg()
	spRun := a.obs.Root().Start("pao.run")
	res := newResult()
	h := res.Health
	uis := a.Design.UniqueInstances()
	sp12 := spRun.Start("pao.step12")
	t12 := time.Now()
	busy := a.analyzeClasses(ctx, res, uis, sp12)
	step12Wall := time.Since(t12)
	sp12.End()

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
					float64(busy) / (float64(wall) * float64(w)))
			}
			reg.Counter("pao.step12.items").Add(int64(len(uis)))
			h.publish(reg)
		}
	}
	if err := a.runErr(ctx, h); err != nil {
		finish()
		return res, err
	}
	spEng := spRun.Start("drc.engine")
	eng, firsts := a.globalEngine(numNetTerms(a.Design) * maxViaObjs(res))
	spEng.End()
	// One query context per worker serves the Step-3 and failed-pin fan-outs.
	qcs := a.queryCtxs()
	spSel := spRun.Start("pao.step3")
	tSel := time.Now()
	a.selectPatterns(ctx, res, eng, firsts, h, qcs)
	selDur = time.Since(tSel)
	spSel.End()
	if err := a.runErr(ctx, h); err != nil {
		finish()
		return res, err
	}
	spFail := spRun.Start("pao.failedpins")
	tFail := time.Now()
	a.countFailedPins(ctx, res, eng, firsts, h, qcs)
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
	sc := a.newCellScratch()
	var buf [8]geom.Rect
	for _, ua := range res.Unique {
		a.fill(sc, ua.UI)
		pivot := ua.UI.Pivot()
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				v := ap.Primary()
				if v == nil {
					continue
				}
				rects := appendPinRects(buf[:0], pivot, pa.Pin, ap.Layer)
				if len(sc.eng.CheckVia(v, ap.Pos, sc.netOf(pa.Pin), rects)) > 0 {
					dirty++
				}
			}
		}
	}
	return dirty
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
