package pao

import (
	"context"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
)

// SelectPatterns implements Step 3: cluster-based access pattern selection.
// Instances are grouped into row clusters (maximal runs with no empty site
// between); within each cluster a DP identical in shape to Algorithm 2 runs
// with instances as groups and access patterns as vertices. Only boundary
// access points (the first and last pins in the pin order) join the DRC
// terms, per Section III-C's acceleration note:
//
//   - vertex cost: the pattern's intrinsic cost plus DRC cost for each
//     boundary via that conflicts with the design's fixed shapes (pins and
//     obstructions of neighboring instances — the isolated Step-1 context
//     could not see those);
//   - edge cost: DRC cost when the facing boundary vias of neighboring
//     instances are incompatible.
//
// Instances outside clusters (and macros) keep their first pattern.
func (a *Analyzer) SelectPatterns(res *Result, eng *drc.Engine) {
	h := res.Health
	if h == nil {
		h = newHealth()
	}
	a.selectPatterns(context.Background(), res, eng, nil, h, a.queryCtxs())
}

// selectPatterns is SelectPatterns under a context: cancellation stops at the
// next cluster boundary (instances then keep the default pattern 0) and a
// panicking cluster DP degrades its member classes instead of crashing.
func (a *Analyzer) selectPatterns(ctx context.Context, res *Result, eng *drc.Engine, firsts []int32, h *Health, qcs []*drc.QueryCtx) {
	SeedDefaultSelections(a.Design, res)
	a.selectClusters(ctx, res, eng, firsts, a.Design.Clusters(), h, res.Selected, qcs)
}

// pick is one Step-3 selection: an instance ID and its pattern index.
type pick struct{ id, pattern int }

// selectClusters is the one Step-3 cluster loop: it runs the DP of every
// cluster with panic quarantine into h, fanned over the configured workers
// (clusters are disjoint and eng is only read) with one DP scratch each, and
// writes the picks into picks once every worker is done. Cancellation and
// the fail-fast policy stop it at the next cluster boundary. firsts, when
// known, locates each instance's fixed shapes in eng (see priceAPs).
func (a *Analyzer) selectClusters(ctx context.Context, res *Result, eng *drc.Engine, firsts []int32, clusters []db.Cluster, h *Health, picks map[int]int, qcs []*drc.QueryCtx) {
	dps := make([]dpScratch, len(qcs))
	local := make([][]pick, len(qcs))
	a.fanOut(eng, len(clusters), "pao.step3.worker.busy", qcs, func(w, i int, qc *drc.QueryCtx) bool {
		if ctx.Err() != nil || a.abort(h) {
			return false
		}
		local[w] = append(local[w], a.safeSelectForCluster(res, eng, firsts, clusters[i], qc, &dps[w], h)...)
		return true
	})
	for _, l := range local {
		for _, p := range l {
			picks[p.id] = p.pattern
		}
	}
}

// queryCtxs returns one empty query-context slot per configured worker, for
// fanOut to fill; a run shares it across its fan-outs over one engine.
func (a *Analyzer) queryCtxs() []*drc.QueryCtx { return make([]*drc.QueryCtx, a.Cfg.workers()) }

// fanOut runs item over 0..n-1 on len(qcs) workers: worker w takes items w,
// w+workers, ... in order with query context qcs[w] on eng (made on first
// use and kept there for the next fan-out), and stops at the first item that
// returns false. With telemetry on, each worker's busy time is observed into
// the histogram hist. A panic that escapes an item is re-raised here once
// every worker has stopped, so the caller's quarantine covers the fan-out.
func (a *Analyzer) fanOut(eng *drc.Engine, n int, hist string, qcs []*drc.QueryCtx, item func(w, i int, qc *drc.QueryCtx) bool) {
	workers := len(qcs)
	reg := a.obs.Reg()
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			var t0 time.Time
			if reg != nil {
				t0 = time.Now()
			}
			if qcs[w] == nil {
				qcs[w] = eng.NewQueryCtx()
			}
			for i := w; i < n; i += workers {
				if !item(w, i, qcs[w]) {
					break
				}
			}
			if reg != nil {
				reg.Histogram(hist).Observe(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// clusterDetail identifies a cluster for fault hooks and error reports by
// its leftmost instance.
func clusterDetail(cl db.Cluster) string {
	if len(cl.Insts) == 0 {
		return "cluster:empty"
	}
	return "cluster:" + cl.Insts[0].Name
}

// safeSelectForCluster runs the Step-3 DP for one cluster in dp with panic
// quarantine: on a panic every member class is downgraded to degraded (the
// default pattern 0 from Step 2 remains in effect) and the run continues.
func (a *Analyzer) safeSelectForCluster(res *Result, eng *drc.Engine, firsts []int32, cl db.Cluster,
	qc *drc.QueryCtx, dp *dpScratch, h *Health) (picks []pick) {

	defer func() {
		if r := recover(); r != nil {
			picks = nil
			h.Record(&PipelineError{
				Step: StepSelect, Signature: clusterDetail(cl),
				Recovered: r, Stack: string(debug.Stack()),
			})
			for _, inst := range cl.Insts {
				if ua := res.ByInstance[inst.ID]; ua != nil {
					h.Degrade(ua.UI.Signature())
				}
			}
		}
	}()
	if hook := a.FaultHook; hook != nil {
		hook(SiteSelectCluster, clusterDetail(cl))
	}
	return a.selectForCluster(res, eng, firsts, cl, qc, dp)
}

// chosenAP is a pattern's chosen access point translated onto a member
// instance, with the violations its primary via meets in the fixed design
// context (set by priceAPs).
type chosenAP struct {
	ap   *AccessPoint
	pos  geom.Point
	net  int
	pin  *db.MPin
	viol int
}

// appendChosenAPs appends the pattern's chosen access points on the given
// member instance, in pin order, to dst.
func (a *Analyzer) appendChosenAPs(dst []chosenAP, res *Result, inst *db.Instance, pat *AccessPattern) []chosenAP {
	ua := res.ByInstance[inst.ID]
	if ua == nil || pat == nil {
		return dst
	}
	for i, c := range pat.Choice {
		if c < 0 {
			continue
		}
		ap := ua.Pins[i].APs[c]
		dst = append(dst, chosenAP{
			ap:  ap,
			pos: ua.TranslateTo(inst, ap.Pos),
			net: a.NetOf(inst, ua.Pins[i].Pin),
			pin: ua.Pins[i].Pin,
		})
	}
	return dst
}

// vertexCost scores one (instance, pattern) choice against the fixed design
// context: the pattern's own cost plus DRCCost per violation its chosen vias
// (aps, priced by priceAPs) meet there. That catches spacing and end-of-line
// conflicts with neighboring instances that the isolated Step-1 context
// could not see. (The paper's boundary-only acceleration applies to the
// pattern-to-pattern via checks — edgeCost3 — not to this fixed-environment
// term; inner pins near a cell edge conflict with neighbors too.)
func (a *Analyzer) vertexCost(pat *AccessPattern, aps []chosenAP) int {
	cost := pat.Cost
	for i := range aps {
		cost += a.Cfg.DRCCost * aps[i].viol
	}
	return cost
}

// priceAPs sets viol on every chosen access point of one member instance
// (aps covers all its patterns). It gathers the instance's neighbourhood once
// (drc.Engine.Focus over every chosen via's signature windows) and prices
// each distinct access point once. A via whose windows hold none of eng's
// objects but the instance's own keeps its Step-1 verdict, 0, without a
// lookup, when:
//
//   - eng has no FaultHook (injected violations are not in that verdict);
//   - firsts locates the instance's shapes in eng (see spanIn), as
//     RunContext and the ECO session record them for their engines;
//   - the instance's signal pins are on pairwise-distinct nets.
//
// Then the via's signature in eng is byte-identical to the one Step 1
// validated as clean in the class's cell context: the same shapes at the
// same offsets (same master and orientation), the candidate pin's shapes on
// its net and every other signal pin on a net of its own in both, and every
// other shape a NoNet blockage in both. Any other via takes the focused
// lookup.
func (a *Analyzer) priceAPs(eng *drc.Engine, firsts []int32, inst *db.Instance, aps []chosenAP, qc *drc.QueryCtx) {
	for i := range aps {
		if v := aps[i].ap.Primary(); v != nil {
			eng.FocusVia(v, aps[i].pos, qc)
		}
	}
	eng.Focus(qc)
	own := spanIn(firsts, inst)
	if own.n > 0 && (eng.FaultHook != nil || !a.distinctSignalNets(inst)) {
		own.n = 0
	}
	var buf [8]geom.Rect
next:
	for i := range aps {
		b := &aps[i]
		for j := range aps[:i] {
			if aps[j].ap == b.ap {
				b.viol = aps[j].viol
				continue next
			}
		}
		v := b.ap.Primary()
		switch {
		case v == nil:
			b.viol = 0
		case own.n > 0 && !eng.ForeignNearVia(v, b.pos, int(own.first), int(own.n), 0, 0, qc, nil):
			b.viol = 0
			if a.shortcutAudit != nil {
				a.shortcutAudit(eng, inst, b)
			}
		default:
			pinRects := appendPinRects(buf[:0], inst, b.pin, b.ap.Layer)
			b.viol = eng.CheckViaVerdictCtx(v, b.pos, b.net, pinRects, qc)
		}
	}
}

// distinctSignalNets reports whether inst's signal pins are on pairwise
// distinct nets, as the cell context puts them.
func (a *Analyzer) distinctSignalNets(inst *db.Instance) bool {
	pins, nets := inst.Master.Pins, a.netOf[inst.ID]
	for i, p := range pins {
		if !isSignal(p) {
			continue
		}
		for j := i + 1; j < len(pins); j++ {
			if nets[j] == nets[i] && isSignal(pins[j]) {
				return false
			}
		}
	}
	return true
}

// edgeCost3 scores the interaction between the right boundary via of the left
// instance (its last chosen AP, from left) and the left boundary via of the
// right instance (its first, from right).
func (a *Analyzer) edgeCost3(left, right []chosenAP) int {
	if len(left) == 0 || len(right) == 0 {
		return 0
	}
	l, r := &left[len(left)-1], &right[0]
	if !ViaPairClean(a.Design.Tech, l.ap.Primary(), l.pos, l.net, r.ap.Primary(), r.pos, r.net) {
		return a.Cfg.DRCCost
	}
	return 0
}

// dpScratch is one Step-3 worker's reusable DP state: the cluster members
// that have patterns, every (member, pattern) vertex with its chosen access
// points (a range of aps) and DP cell, where each member's vertices start,
// and the picks of the last cluster. Scratch lives per worker and per run.
type dpScratch struct {
	insts []*db.Instance
	aps   []chosenAP
	verts []dpVert
	first []int // first[gi]: index in verts of insts[gi]'s pattern 0
	picks []pick
}

// dpVert is one (member, pattern) vertex of the Step-3 DP: its chosen access
// points aps[lo:hi] and its DP cell.
type dpVert struct {
	lo, hi int
	dpVertex
}

// selectForCluster runs the Step-3 DP over one cluster in dp and returns the
// selected pattern index per member instance (written by the caller, so the
// DP itself never touches shared state). The picks alias dp and are valid
// until its next cluster.
func (a *Analyzer) selectForCluster(res *Result, eng *drc.Engine, firsts []int32, cl db.Cluster, ctx *drc.QueryCtx, dp *dpScratch) []pick {
	dp.insts = dp.insts[:0]
	for _, inst := range cl.Insts {
		if ua := res.ByInstance[inst.ID]; ua != nil && len(ua.Patterns) > 0 {
			dp.insts = append(dp.insts, inst)
		}
	}
	dp.picks = dp.picks[:0]
	if len(dp.insts) == 0 {
		return dp.picks
	}
	// Each vertex's chosen APs are computed and priced once per member and
	// shared by its vertex term and every edge term.
	dp.aps, dp.verts, dp.first = dp.aps[:0], dp.verts[:0], dp.first[:0]
	for gi, inst := range dp.insts {
		pats := res.ByInstance[inst.ID].Patterns
		first, lo := len(dp.verts), len(dp.aps)
		dp.first = append(dp.first, first)
		for _, p := range pats {
			v := dpVert{lo: len(dp.aps)}
			dp.aps = a.appendChosenAPs(dp.aps, res, inst, p)
			v.hi = len(dp.aps)
			dp.verts = append(dp.verts, v)
		}
		a.priceAPs(eng, firsts, inst, dp.aps[lo:], ctx)
		for ni, p := range pats {
			v := &dp.verts[first+ni]
			aps := dp.aps[v.lo:v.hi]
			vc := a.vertexCost(p, aps)
			if gi == 0 {
				v.dpVertex = dpVertex{cost: vc, prev: -1}
				continue
			}
			best, bestPrev := math.MaxInt, -1
			prev := dp.verts[dp.first[gi-1]:first]
			for pi := range prev {
				if prev[pi].cost == math.MaxInt {
					continue
				}
				c := prev[pi].cost + vc + a.edgeCost3(dp.aps[prev[pi].lo:prev[pi].hi], aps)
				if c < best {
					best, bestPrev = c, pi
				}
			}
			v.dpVertex = dpVertex{cost: best, prev: bestPrev}
		}
	}
	last := len(dp.insts) - 1
	bestNi, bestCost := -1, math.MaxInt
	for ni, v := range dp.verts[dp.first[last]:] {
		if v.cost < bestCost {
			bestCost, bestNi = v.cost, ni
		}
	}
	for gi := last; gi >= 0 && bestNi >= 0; gi-- {
		dp.picks = append(dp.picks, pick{dp.insts[gi].ID, bestNi})
		bestNi = dp.verts[dp.first[gi]+bestNi].prev
	}
	return dp.picks
}

// CountFailedPins fills Stats.TotalPins and Stats.FailedPins: every instance
// pin attached to a net needs a DRC-clean access point; the selected primary
// vias of all pins are placed together with the design's fixed shapes and
// each is re-validated in that full context (the Table III metric), one
// instance at a time. The engine is mutated (vias are added) — pass a fresh
// or end-of-life engine. It locates no instance in eng, so every via takes
// the lookup: the results it recounts (the distributed coordinator's merge,
// Experiment 2's baselines) need not carry Step-1 verdicts.
func (a *Analyzer) CountFailedPins(res *Result, eng *drc.Engine) {
	h := res.Health
	if h == nil {
		h = newHealth()
	}
	a.countFailedPins(context.Background(), res, eng, nil, h, a.queryCtxs())
}

// termVia is a net terminal's selected primary via in design coordinates:
// the unit that failed-pin accounting places and re-validates. A nil via
// means planar-only access (macro pins): the point was validated in Step 1
// and places no via, so it cannot conflict here.
type termVia struct {
	inst  *db.Instance
	pin   *db.MPin
	via   *tech.ViaDef
	pos   geom.Point
	net   int32
	layer int16 // the access point's metal: its pin shapes join the min-step union
}

// resolveTerm looks up the selected access point of an instance pin. ok is
// false when the pin has no access point at all, which counts as failed.
func (a *Analyzer) resolveTerm(res *Result, inst *db.Instance, pin *db.MPin) (tv termVia, ok bool) {
	tv = termVia{inst: inst, pin: pin}
	ap, pos := res.accessPoint(inst, pin)
	if ap == nil {
		return tv, false
	}
	tv.via, tv.pos, tv.layer = ap.Primary(), pos, int16(ap.Layer)
	if tv.via != nil {
		tv.net = int32(a.NetOf(inst, pin))
	}
	return tv, true
}

// place adds the via to eng on the terminal's net: the two enclosures as
// via-enclosure metal, then every cut. It returns the first object ID; the
// via occupies viaObjs(tv.via) consecutive IDs from there.
func (tv *termVia) place(eng *drc.Engine) int32 {
	v, net := tv.via, int(tv.net)
	first := eng.AddMetal(v.CutBelow, v.BotRect(tv.pos), net, drc.KindViaEnc, "")
	eng.AddMetal(v.CutBelow+1, v.TopRect(tv.pos), net, drc.KindViaEnc, "")
	for _, c := range v.Cuts {
		eng.AddCut(v.CutBelow, c.Shift(tv.pos), net, "")
	}
	return int32(first)
}

// viaObjs is the number of engine objects place adds for v.
func viaObjs(v *tech.ViaDef) int { return 2 + len(v.Cuts) }

// viaSpan is the span of engine objects tm's placed via occupies (hasVia
// only).
func (tm *pinTerm) viaSpan() objSpan {
	return objSpan{first: tm.obj0, n: int32(viaObjs(tm.via))}
}

// fails re-validates the placed via in eng's full context.
func (tv *termVia) fails(eng *drc.Engine, qc *drc.QueryCtx) bool {
	var buf [8]geom.Rect
	pinRects := appendPinRects(buf[:0], tv.inst, tv.pin, int(tv.layer))
	return eng.CheckViaVerdictCtx(tv.via, tv.pos, int(tv.net), pinRects, qc) > 0
}

// pinTerm is one net terminal's state in a pinLedger (56 bytes: termVia
// takes 48, obj0 and the two flags the last 8).
type pinTerm struct {
	termVia
	obj0   int32 // first engine object of the placed via (hasVia only)
	access bool  // has a selected access point; false counts as failed
	failed bool
}

// hasVia reports whether the terminal places a via in the ledger's engine.
func (tm *pinTerm) hasVia() bool { return tm.access && tm.via != nil }

// pinLedger is failed-pin accounting over one engine that holds the fixed
// shapes plus every selected via: each net terminal with its verdict,
// grouped by instance, the terminals still in the design (TotalPins) and
// those of them that fail (FailedPins). countFailedPins builds one per batch
// run; an ECOSession keeps one current across commits.
type pinLedger struct {
	terms []pinTerm
	// off groups terms by instance ID: instance id's terminals are
	// terms[off[id]:off[id+1]]. A dropped instance's entry is complemented
	// (^off[id]), which empties its run and keeps the start of the next one
	// readable.
	off     []int32
	live    int
	failing int
}

// run returns the index range [lo, hi) of instance id's terminals in terms:
// empty for an instance the ledger was resolved without (an ECO insert) or
// has dropped.
func (l *pinLedger) run(id int) (lo, hi int32) {
	if id+1 >= len(l.off) || l.off[id] < 0 {
		return 0, 0
	}
	if hi = l.off[id+1]; hi < 0 {
		hi = ^hi
	}
	return l.off[id], hi
}

// drop empties instance id's run for good: the terminals of a deleted
// instance are never visited again.
func (l *pinLedger) drop(id int) {
	if id+1 < len(l.off) && l.off[id] >= 0 {
		l.off[id] = ^l.off[id]
	}
}

// mark records a terminal's verdict and keeps the failing count in step.
func (l *pinLedger) mark(tm *pinTerm, failed bool) {
	if failed != tm.failed {
		tm.failed = failed
		if failed {
			l.failing++
		} else {
			l.failing--
		}
	}
}

// resolveLedger resolves every net terminal's selected access point into a
// ledger grouped by instance, whose terminals without access are already
// failed, and returns the number of engine objects its vias take. A counting
// pass over the nets' terms sizes each instance's run; the terms are then
// resolved, net by net, into their runs. Cancellation is checked
// periodically; the ledger then counts the terminals resolved so far, and
// the slots left empty hold no via and count nowhere.
func (a *Analyzer) resolveLedger(ctx context.Context, res *Result) (l pinLedger, objs int) {
	// Counts go two slots up, so that after the prefix sum off[id+1] is
	// instance id's start, a cursor that filling moves to its end: the
	// next instance's start. off[0] stays 0.
	off := make([]int32, len(a.netOf)+2)
	for _, net := range a.Design.Nets {
		for _, t := range net.Terms {
			off[t.Inst.ID+2]++
		}
	}
	for id := 1; id < len(off); id++ {
		off[id] += off[id-1]
	}
	l.terms = make([]pinTerm, off[len(off)-1])
	l.off = off[:len(off)-1]
	for _, net := range a.Design.Nets {
		for _, t := range net.Terms {
			if l.live%256 == 0 && ctx.Err() != nil {
				return l, objs
			}
			tv, ok := a.resolveTerm(res, t.Inst, t.Pin)
			tm := &l.terms[off[t.Inst.ID+1]]
			off[t.Inst.ID+1]++
			*tm = pinTerm{termVia: tv, access: ok}
			if tm.hasVia() {
				objs += viaObjs(tm.via)
			}
			l.mark(tm, !ok)
			l.live++
		}
	}
	return l, objs
}

// checkLedger places the ledger's vias, objs engine objects in all, into eng
// (which already holds the fixed shapes) in ledger order, so each instance's
// vias take one run of object IDs; compacts it; and checks every via
// terminal, fanned out per instance over the workers of qcs (checkInstance).
// firsts, when it locates the instances' shapes in eng, lets a via that only
// its own cell can reach keep its Step-1 verdict. Cancellation is checked
// per instance; the counts then cover the instances checked so far.
func (a *Analyzer) checkLedger(ctx context.Context, l *pinLedger, eng *drc.Engine, firsts []int32, objs int, qcs []*drc.QueryCtx) {
	eng.Grow(objs)
	for i := range l.terms {
		if tm := &l.terms[i]; tm.hasVia() {
			tm.obj0 = tm.place(eng)
		}
	}
	// The check is read-only over the frozen engine: fold the placement churn
	// into the dense index, then fan out.
	eng.Compact()
	counts := make([]int, len(qcs))
	held := make([][]bool, len(qcs))
	a.fanOut(eng, len(l.off)-1, "pao.failedpins.worker.busy", qcs, func(w, id int, qc *drc.QueryCtx) bool {
		if ctx.Err() != nil {
			return false
		}
		lo, hi := l.run(id)
		counts[w] += a.checkInstance(eng, firsts, l.terms[lo:hi], qc, &held[w])
		return true
	})
	for _, c := range counts {
		l.failing += c
	}
}

// checkInstance checks one instance's terminals, placed in eng, through qc:
// it marks the failing via terminals and returns how many there are. held
// is the caller's scratch. One focus gathers the windows of all the
// instance's vias. A via keeps its Step-1 verdict, clean, without a lookup
// when:
//
//   - eng has no FaultHook (injected violations are not in that verdict);
//   - firsts locates the instance's fixed shapes in eng (see spanIn), as
//     RunContext and the ECO session record them for their engines;
//   - no object but those shapes and the instance's own vias touches the
//     via's signature windows (drc.Engine.ForeignNearVia, with the run of
//     object IDs the vias take as the second span);
//   - ViaPairClean, on the design nets, clears the via against itself and
//     against every sibling via those windows hold.
//
// That is exact because every violation a via check reports comes from one
// object it queried, except min step, which reads only the via and its pin
// shapes. Step 1 found the via clean in the class's cell context: the same
// pin and obstruction shapes at the same offsets, the same pin shapes in its
// min-step union. The design nets can only turn another pin's "other net"
// there into "same net" here, which removes violations and adds none. So
// the instance's fixed shapes add no violation; the pair check rules out
// every one its vias could add, a multi-cut via's own cuts included; and no
// other object is in reach. Unlike Step 3's shortcut, this needs no
// distinct-net guard: it does not claim the signature is Step 1's (a placed
// via is in it), only that the verdict is. Every other via takes the
// focused, cached lookup.
func (a *Analyzer) checkInstance(eng *drc.Engine, firsts []int32, terms []pinTerm, qc *drc.QueryCtx, held *[]bool) (failing int) {
	var vias objSpan // the run of object IDs the instance's vias take
	var inst *db.Instance
	for i := range terms {
		if tm := &terms[i]; tm.hasVia() {
			eng.FocusVia(tm.via, tm.pos, qc)
			if vias.n == 0 {
				vias.first, inst = tm.obj0, tm.inst
			}
			vias.n = tm.obj0 + int32(viaObjs(tm.via)) - vias.first
		}
	}
	if vias.n == 0 {
		return 0
	}
	eng.Focus(qc)
	var own objSpan
	if eng.FaultHook == nil {
		own = spanIn(firsts, inst)
	}
	if cap(*held) < len(terms) {
		*held = make([]bool, len(terms))
	}
	h := (*held)[:len(terms)]
	// hold marks the terminal whose via holds object id.
	hold := func(id int) {
		for j := range terms {
			if sj := &terms[j]; sj.hasVia() && int32(id) >= sj.obj0 && int32(id)-sj.obj0 < int32(viaObjs(sj.via)) {
				h[j] = true
				return
			}
		}
	}
	for i := range terms {
		tm := &terms[i]
		if !tm.hasVia() {
			continue
		}
		clear(h)
		if own.n > 0 && !eng.ForeignNearVia(tm.via, tm.pos, int(own.first), int(own.n), int(vias.first), int(vias.n), qc, hold) &&
			a.pairsClean(terms, i, h) {
			if a.ledgerAudit != nil {
				a.ledgerAudit(eng, tm)
			}
			continue
		}
		if tm.fails(eng, qc) {
			tm.failed = true
			failing++
		}
	}
	return failing
}

// pairsClean reports whether ViaPairClean, on the design nets, clears
// terms[i]'s via against the via of every terminal held marks, its own
// included.
func (a *Analyzer) pairsClean(terms []pinTerm, i int, held []bool) bool {
	tm := &terms[i]
	for j, near := range held {
		if sj := &terms[j]; near && !ViaPairClean(a.Design.Tech, tm.via, tm.pos, int(tm.net), sj.via, sj.pos, int(sj.net)) {
			return false
		}
	}
	return true
}

// numNetTerms counts the instance terminals on the design's nets.
func numNetTerms(d *db.Design) int {
	n := 0
	for _, net := range d.Nets {
		n += len(net.Terms)
	}
	return n
}

// maxViaObjs is the most engine objects the primary via of any access point
// in res takes: times numNetTerms, a bound on the objects the failed-pin
// ledger places.
func maxViaObjs(res *Result) int {
	n := 0
	for _, ua := range res.Unique {
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				if v := ap.Primary(); v != nil {
					n = max(n, viaObjs(v))
				}
			}
		}
	}
	return n
}

// countFailedPins is CountFailedPins under a context (the stats then reflect
// the terminals checked before cancellation) with whole-phase panic
// quarantine. firsts is checkLedger's.
func (a *Analyzer) countFailedPins(ctx context.Context, res *Result, eng *drc.Engine, firsts []int32, h *Health, qcs []*drc.QueryCtx) {
	defer func() {
		if r := recover(); r != nil {
			h.Record(&PipelineError{
				Step: StepFailedPins, Recovered: r, Stack: string(debug.Stack()),
			})
		}
	}()
	if hook := a.FaultHook; hook != nil {
		hook(SiteFailedPins, "")
	}
	l, objs := a.resolveLedger(ctx, res)
	a.checkLedger(ctx, &l, eng, firsts, objs, qcs)
	res.Stats.TotalPins = l.live
	res.Stats.FailedPins = l.failing
}
