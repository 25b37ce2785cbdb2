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
	a.selectPatterns(context.Background(), res, eng, h)
}

// selectPatterns is SelectPatterns under a context: cancellation stops at the
// next cluster boundary (instances then keep the default pattern 0) and a
// panicking cluster DP degrades its member classes instead of crashing.
func (a *Analyzer) selectPatterns(ctx context.Context, res *Result, eng *drc.Engine, h *Health) {
	for _, inst := range a.Design.Instances {
		if ua := res.ByInstance[inst.ID]; ua != nil && len(ua.Patterns) > 0 {
			res.Selected[inst.ID] = 0
		}
	}
	clusters := a.Design.Clusters()
	workers := a.Cfg.workers()
	if workers == 1 || len(clusters) < 2*workers {
		qc := eng.NewQueryCtx()
		for _, cl := range clusters {
			if ctx.Err() != nil || a.abort(h) {
				return
			}
			for inst, ni := range a.safeSelectForCluster(res, eng, cl, qc, h) {
				res.Selected[inst] = ni
			}
		}
		return
	}
	// Clusters are disjoint, and the engine is only read — fan out and merge
	// the per-cluster selections afterwards.
	reg := a.Obs.Reg()
	picks := make([]map[int]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t0 time.Time
			if reg != nil {
				t0 = time.Now()
			}
			qc := eng.NewQueryCtx()
			local := make(map[int]int)
			for i := w; i < len(clusters); i += workers {
				if ctx.Err() != nil || a.abort(h) {
					break
				}
				for inst, ni := range a.safeSelectForCluster(res, eng, clusters[i], qc, h) {
					local[inst] = ni
				}
			}
			picks[w] = local
			if reg != nil {
				reg.Histogram("pao.step3.worker.busy").Observe(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	for _, m := range picks {
		for inst, ni := range m {
			res.Selected[inst] = ni
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

// safeSelectForCluster runs the Step-3 DP for one cluster with panic
// quarantine: on a panic every member class is downgraded to degraded (the
// default pattern 0 from Step 2 remains in effect) and the run continues.
func (a *Analyzer) safeSelectForCluster(res *Result, eng *drc.Engine, cl db.Cluster,
	qc *drc.QueryCtx, h *Health) (picks map[int]int) {

	defer func() {
		if r := recover(); r != nil {
			picks = nil
			h.record(&PipelineError{
				Step: StepSelect, Signature: clusterDetail(cl),
				Recovered: r, Stack: string(debug.Stack()),
			})
			for _, inst := range cl.Insts {
				if ua := res.ByInstance[inst.ID]; ua != nil {
					h.degradeClass(ua.UI.Signature())
				}
			}
		}
	}()
	if hook := a.FaultHook; hook != nil {
		hook(SiteSelectCluster, clusterDetail(cl))
	}
	return a.selectForCluster(res, eng, cl, qc)
}

// boundaryAPInfo is a boundary access point translated onto a member
// instance.
type boundaryAPInfo struct {
	ap  *AccessPoint
	pos geom.Point
	net int
	pin *db.MPin
}

// chosenAPs returns the pattern's chosen access points on the given member
// instance, in pin order. boundaryOnly restricts it to the first and last
// (they coincide for single-pin cells).
func (a *Analyzer) chosenAPs(res *Result, inst *db.Instance, pat *AccessPattern, boundaryOnly bool) []boundaryAPInfo {
	ua := res.ByInstance[inst.ID]
	if ua == nil || pat == nil {
		return nil
	}
	var idxs []int
	for i, c := range pat.Choice {
		if c >= 0 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	if boundaryOnly {
		pick := []int{idxs[0]}
		if last := idxs[len(idxs)-1]; last != idxs[0] {
			pick = append(pick, last)
		}
		idxs = pick
	}
	out := make([]boundaryAPInfo, 0, len(idxs))
	for _, i := range idxs {
		ap := ua.Pins[i].APs[pat.Choice[i]]
		out = append(out, boundaryAPInfo{
			ap:  ap,
			pos: ua.TranslateTo(inst, ap.Pos),
			net: a.NetOf(inst, ua.Pins[i].Pin),
			pin: ua.Pins[i].Pin,
		})
	}
	return out
}

// boundaryAPs returns the first and last chosen access points of a pattern on
// the given member instance.
func (a *Analyzer) boundaryAPs(res *Result, inst *db.Instance, pat *AccessPattern) []boundaryAPInfo {
	return a.chosenAPs(res, inst, pat, true)
}

// vertexCost scores one (instance, pattern) choice against the fixed design
// context: every chosen via is re-validated with the global engine, which
// catches spacing and end-of-line conflicts with neighboring instances that
// the isolated Step-1 context could not see. (The paper's boundary-only
// acceleration applies to the pattern-to-pattern via checks — edgeCost3 —
// not to this fixed-environment term; inner pins near a cell edge conflict
// with neighbors too.)
func (a *Analyzer) vertexCost(res *Result, eng *drc.Engine, inst *db.Instance, pat *AccessPattern, ctx *drc.QueryCtx) int {
	cost := pat.Cost
	for _, b := range a.chosenAPs(res, inst, pat, false) {
		if b.ap.Primary() == nil {
			continue
		}
		pinRects := pinRectsOnLayer(inst, b.pin, b.ap.Layer)
		cost += a.Cfg.DRCCost * eng.CheckViaVerdictCtx(b.ap.Primary(), b.pos, b.net, pinRects, ctx)
	}
	return cost
}

// edgeCost3 scores the interaction between the right boundary via of left
// (pattern lp) and the left boundary via of right (pattern rp).
func (a *Analyzer) edgeCost3(res *Result, left *db.Instance, lp *AccessPattern, right *db.Instance, rp *AccessPattern) int {
	lb := a.boundaryAPs(res, left, lp)
	rb := a.boundaryAPs(res, right, rp)
	if len(lb) == 0 || len(rb) == 0 {
		return 0
	}
	l := lb[len(lb)-1] // rightmost boundary AP of the left instance
	r := rb[0]         // leftmost boundary AP of the right instance
	if !a.pairClean(l.ap.Primary(), l.pos, l.net, r.ap.Primary(), r.pos, r.net) {
		return a.Cfg.DRCCost
	}
	return 0
}

// selectForCluster runs the Step-3 DP over one cluster and returns the
// selected pattern index per instance ID (written by the caller, so the DP
// itself never touches shared state).
func (a *Analyzer) selectForCluster(res *Result, eng *drc.Engine, cl db.Cluster, ctx *drc.QueryCtx) map[int]int {
	var insts []*db.Instance
	for _, inst := range cl.Insts {
		if ua := res.ByInstance[inst.ID]; ua != nil && len(ua.Patterns) > 0 {
			insts = append(insts, inst)
		}
	}
	if len(insts) == 0 {
		return nil
	}
	pats := func(inst *db.Instance) []*AccessPattern { return res.ByInstance[inst.ID].Patterns }

	dp := make([][]dpVertex, len(insts))
	for gi, inst := range insts {
		ps := pats(inst)
		dp[gi] = make([]dpVertex, len(ps))
		for ni, p := range ps {
			vc := a.vertexCost(res, eng, inst, p, ctx)
			if gi == 0 {
				dp[0][ni] = dpVertex{cost: vc, prev: -1}
				continue
			}
			best, bestPrev := math.MaxInt, -1
			prevInst := insts[gi-1]
			for pi, pp := range pats(prevInst) {
				if dp[gi-1][pi].cost == math.MaxInt {
					continue
				}
				c := dp[gi-1][pi].cost + vc + a.edgeCost3(res, prevInst, pp, inst, p)
				if c < best {
					best, bestPrev = c, pi
				}
			}
			dp[gi][ni] = dpVertex{cost: best, prev: bestPrev}
		}
	}
	bestNi, bestCost := -1, math.MaxInt
	for ni, v := range dp[len(insts)-1] {
		if v.cost < bestCost {
			bestCost, bestNi = v.cost, ni
		}
	}
	out := make(map[int]int, len(insts))
	for gi := len(insts) - 1; gi >= 0 && bestNi >= 0; gi-- {
		out[insts[gi].ID] = bestNi
		bestNi = dp[gi][bestNi].prev
	}
	if rec := a.Rec; rec != nil {
		for _, inst := range insts {
			if ni, ok := out[inst.ID]; ok {
				rec.RecordSelection(inst.ID, ni, bestCost)
			}
		}
	}
	return out
}

// CountFailedPins fills Stats.TotalPins and Stats.FailedPins: every instance
// pin attached to a net needs a DRC-clean access point; the selected primary
// vias of all pins are placed together with the design's fixed shapes and
// each is re-validated in that full context (the Table III metric). The
// engine is mutated (vias are added) — pass a fresh or end-of-life engine.
func (a *Analyzer) CountFailedPins(res *Result, eng *drc.Engine) {
	h := res.Health
	if h == nil {
		h = newHealth()
	}
	a.countFailedPins(context.Background(), res, eng, h)
}

// termVia is a net terminal's selected primary via in design coordinates:
// the unit that failed-pin accounting places and re-validates. A nil via
// means planar-only access (macro pins): the point was validated in Step 1
// and places no via, so it cannot conflict here.
type termVia struct {
	inst  *db.Instance
	pin   *db.MPin
	net   int
	via   *tech.ViaDef
	pos   geom.Point
	layer int // the access point's metal: its pin shapes join the min-step union
}

// resolveTerm looks up the selected access point of an instance pin. ok is
// false when the pin has no access point at all, which counts as failed.
func (a *Analyzer) resolveTerm(res *Result, inst *db.Instance, pin *db.MPin) (tv termVia, ok bool) {
	tv = termVia{inst: inst, pin: pin}
	ap := res.AccessPointFor(inst, pin)
	if ap == nil {
		return tv, false
	}
	tv.via, tv.pos, tv.layer = ap.Primary(), ap.Pos, ap.Layer
	if tv.via != nil {
		tv.net = a.NetOf(inst, pin)
	}
	return tv, true
}

// place adds the via to eng on the terminal's net: the two enclosures as
// via-enclosure metal, then every cut. It returns the first object ID; the
// via occupies viaObjs(tv.via) consecutive IDs from there.
func (tv *termVia) place(eng *drc.Engine) int {
	v := tv.via
	first := eng.AddMetal(v.CutBelow, v.BotRect(tv.pos), tv.net, drc.KindViaEnc, "")
	eng.AddMetal(v.CutBelow+1, v.TopRect(tv.pos), tv.net, drc.KindViaEnc, "")
	for _, c := range v.Cuts {
		eng.AddCut(v.CutBelow, c.Shift(tv.pos), tv.net, "")
	}
	return first
}

// viaObjs is the number of engine objects place adds for v.
func viaObjs(v *tech.ViaDef) int { return 2 + len(v.Cuts) }

// fails re-validates the placed via in eng's full context.
func (tv *termVia) fails(eng *drc.Engine, qc *drc.QueryCtx) bool {
	pinRects := pinRectsOnLayer(tv.inst, tv.pin, tv.layer)
	return eng.CheckViaVerdictCtx(tv.via, tv.pos, tv.net, pinRects, qc) > 0
}

// numNetTerms counts the instance terminals on the design's nets.
func numNetTerms(d *db.Design) int {
	n := 0
	for _, net := range d.Nets {
		n += len(net.Terms)
	}
	return n
}

// countFailedPins is CountFailedPins under a context (cancellation is checked
// periodically inside both the placement and validation loops; the stats then
// reflect the pins validated so far) with whole-phase panic quarantine.
func (a *Analyzer) countFailedPins(ctx context.Context, res *Result, eng *drc.Engine, h *Health) {
	defer func() {
		if r := recover(); r != nil {
			h.record(&PipelineError{
				Step: StepFailedPins, Recovered: r, Stack: string(debug.Stack()),
			})
		}
	}()
	if hook := a.FaultHook; hook != nil {
		hook(SiteFailedPins, "")
	}
	all := make([]termVia, 0, numNetTerms(a.Design))
	total := 0
	failed := 0
place:
	for _, net := range a.Design.Nets {
		for _, t := range net.Terms {
			if total%256 == 0 && ctx.Err() != nil {
				break place
			}
			total++
			tv, ok := a.resolveTerm(res, t.Inst, t.Pin)
			if !ok {
				failed++
				continue
			}
			if tv.via == nil {
				continue
			}
			tv.place(eng)
			all = append(all, tv)
		}
	}
	// The validation pass is read-only over the frozen engine; fold the
	// placement churn into the dense index, then fan out when the analyzer is
	// configured for multi-threading.
	eng.Compact()
	workers := a.Cfg.workers()
	if workers == 1 {
		qc := eng.NewQueryCtx()
		for i := range all {
			if i%64 == 0 && ctx.Err() != nil {
				break
			}
			if all[i].fails(eng, qc) {
				failed++
			}
		}
	} else {
		reg := a.Obs.Reg()
		counts := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var t0 time.Time
				if reg != nil {
					t0 = time.Now()
				}
				qc := eng.NewQueryCtx()
				for i := w; i < len(all); i += workers {
					if ctx.Err() != nil {
						break
					}
					if all[i].fails(eng, qc) {
						counts[w]++
					}
				}
				if reg != nil {
					reg.Histogram("pao.failedpins.worker.busy").Observe(time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		for _, c := range counts {
			failed += c
		}
	}
	res.Stats.TotalPins = total
	res.Stats.FailedPins = failed
}
