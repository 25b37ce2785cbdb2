package drc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/tech"
)

// The rule checks come in two flavours sharing one implementation: the
// report path (notes=true) builds human-readable notes and returns fresh
// slices, and the count-only verdict path (notes=false) appends bare
// violations — Rule/Layer/Where only, which is everything Key() encodes —
// into the QueryCtx arena, allocating nothing after warm-up. Both flavours
// emit the same violations in the same order and drive the same counters, so
// a verdict is always len(Dedup(report)) by construction.

// CheckMetalRect validates a hypothetical metal shape on the given layer for
// the given net against the engine's indexed shapes: shorts (overlap with a
// different net) and PRL-table spacing. Touching a different-net shape is a
// spacing violation (required spacing is always positive).
func (e *Engine) CheckMetalRect(layer int, r geom.Rect, net int) []Violation {
	return e.CheckMetalRectCtx(layer, r, net, nil)
}

// CheckMetalRectCtx is CheckMetalRect with caller-owned query state for
// concurrent read-only checking.
func (e *Engine) CheckMetalRectCtx(layer int, r geom.Rect, net int, ctx *QueryCtx) []Violation {
	return e.checkMetalRectInto(layer, r, net, ctx, true, nil)
}

// CheckMetalRectCountCtx is len(CheckMetalRectCtx(...)) without report
// construction: the violations accumulate on the QueryCtx arena and no note
// is built. Counters move exactly as on the report path.
func (e *Engine) CheckMetalRectCountCtx(layer int, r geom.Rect, net int, qc *QueryCtx) int {
	if qc == nil {
		return len(e.CheckMetalRectCtx(layer, r, net, nil))
	}
	qc.viol = e.checkMetalRectInto(layer, r, net, qc, false, qc.viol[:0])
	return len(qc.viol)
}

func (e *Engine) checkMetalRectInto(layer int, r geom.Rect, net int, ctx *QueryCtx, notes bool, out []Violation) []Violation {
	l := e.Tech.Metal(layer)
	if l == nil {
		return out
	}
	e.Counters.MetalChecks.Add(1)
	before := len(out)
	win := r.Bloat(l.SpacingReach())
	for _, id := range e.QueryMetalCtx(layer, win, ctx) {
		oNet := int(e.objs[id].net)
		if sameNet(net, oNet) {
			continue
		}
		var tag string
		if notes {
			tag = e.describe(id)
		}
		out = checkMetalPairInto(l, r, net, "candidate", e.rect(id), oNet, tag, notes, out)
	}
	e.Counters.Violations.Add(int64(len(out) - before))
	return out
}

// metalPairRule decides the short, corner and spacing rules for one pair of
// different-net shapes on layer l: the rule that fires ("" when none does),
// with the spacing required and the parallel run length it was judged at.
func metalPairRule(l *tech.RoutingLayer, a, b geom.Rect) (rule string, req, prl int64) {
	if a.Overlaps(b) {
		return "Short", 0, 0
	}
	w := a.MinDim()
	if bw := b.MinDim(); bw > w {
		w = bw
	}
	prl = a.PRL(b)
	diagonal := prl < 0
	if prl < 0 {
		prl = 0
	}
	req = l.MinSpacing(w, prl)
	// Diagonal neighbors with a wide participant fall under corner spacing.
	if diagonal && l.Corner.Enabled() && w >= l.Corner.EligibleWidth && l.Corner.Spacing > req {
		if a.DistSquared(b) < l.Corner.Spacing*l.Corner.Spacing {
			return "CornerSpacing", l.Corner.Spacing, prl
		}
		return "", req, prl
	}
	if req > 0 && a.DistSquared(b) < req*req {
		return "Spacing", req, prl
	}
	return "", req, prl
}

// checkMetalPairInto applies short and spacing rules to one pair of
// different-net shapes on layer l. With notes=false the tags are ignored and
// the Note field stays empty (the dedup key is unaffected).
func checkMetalPairInto(l *tech.RoutingLayer, a geom.Rect, aNet int, aTag string, b geom.Rect, bNet int, bTag string, notes bool, out []Violation) []Violation {
	rule, req, prl := metalPairRule(l, a, b)
	var v Violation
	switch rule {
	case "":
		return out
	case "Short":
		ov, _ := a.Intersect(b)
		v = Violation{Rule: rule, Layer: l.Name, Where: ov}
		if notes {
			v.Note = fmt.Sprintf("%s (net %d) overlaps %s (net %d)", aTag, aNet, bTag, bNet)
		}
	case "CornerSpacing":
		v = Violation{Rule: rule, Layer: l.Name, Where: a.UnionBBox(b)}
		if notes {
			v.Note = fmt.Sprintf("%s (net %d) corner within %d of %s (net %d)", aTag, aNet, req, bTag, bNet)
		}
	default:
		v = Violation{Rule: rule, Layer: l.Name, Where: a.UnionBBox(b)}
		if notes {
			v.Note = fmt.Sprintf("%s (net %d) within %d of %s (net %d), prl %d", aTag, aNet, req, bTag, bNet, prl)
		}
	}
	return append(out, v)
}

// MetalPairClean reports whether one standalone pair of shapes on layer l
// passes the short, spacing and corner rules (the via-to-via compatibility
// check, which runs without an engine). Same-net pairs are exempt.
func MetalPairClean(l *tech.RoutingLayer, a geom.Rect, aNet int, b geom.Rect, bNet int) bool {
	if sameNet(aNet, bNet) {
		return true
	}
	rule, _, _ := metalPairRule(l, a, b)
	return rule == ""
}

// eolWindows returns the end-of-line clearance windows of a wire-like shape
// on layer l in wins[:n] (n is 0 when the rule is disabled or the end edges
// are wide). The fixed-size return keeps the hot path allocation-free.
func eolWindows(l *tech.RoutingLayer, r geom.Rect) (wins [2]geom.Rect, n int) {
	if !l.EOL.Enabled() {
		return wins, 0
	}
	if r.Width() >= r.Height() {
		if r.Height() < l.EOL.EOLWidth {
			wins[0] = geom.R(r.XL-l.EOL.EOLSpace, r.YL-l.EOL.EOLWithin, r.XL, r.YH+l.EOL.EOLWithin)
			wins[1] = geom.R(r.XH, r.YL-l.EOL.EOLWithin, r.XH+l.EOL.EOLSpace, r.YH+l.EOL.EOLWithin)
			return wins, 2
		}
		return wins, 0
	}
	if r.Width() < l.EOL.EOLWidth {
		wins[0] = geom.R(r.XL-l.EOL.EOLWithin, r.YL-l.EOL.EOLSpace, r.XH+l.EOL.EOLWithin, r.YL)
		wins[1] = geom.R(r.XL-l.EOL.EOLWithin, r.YH, r.XH+l.EOL.EOLWithin, r.YH+l.EOL.EOLSpace)
		return wins, 2
	}
	return wins, 0
}

// EOLPairClean reports whether neither shape of one standalone pair on layer
// l blocks an end-of-line window of the other. Same-net pairs are exempt.
func EOLPairClean(l *tech.RoutingLayer, a geom.Rect, aNet int, b geom.Rect, bNet int) bool {
	return sameNet(aNet, bNet) || (!eolBlocked(l, a, b) && !eolBlocked(l, b, a))
}

// eolBlocked reports whether o overlaps an end-of-line window of r.
func eolBlocked(l *tech.RoutingLayer, r, o geom.Rect) bool {
	wins, n := eolWindows(l, r)
	for _, win := range wins[:n] {
		if win.Overlaps(o) {
			return true
		}
	}
	return false
}

// CutPairClean reports whether one standalone pair of cuts on cut layer c
// neither overlaps nor violates cut spacing. Coincident cuts are the same via
// and exempt; net membership is irrelevant for cut spacing.
func CutPairClean(c *tech.CutLayer, a, b geom.Rect) bool {
	return a == b || (!a.Overlaps(b) && a.DistSquared(b) >= c.Spacing*c.Spacing)
}

// CheckCutRect validates a hypothetical via cut on cut layer cutBelow: cut
// spacing applies regardless of net (two same-net vias still need clearance);
// an identical coincident cut is treated as the same via and skipped.
func (e *Engine) CheckCutRect(cutBelow int, r geom.Rect, net int) []Violation {
	return e.checkCutRectInto(cutBelow, r, net, nil, true, nil)
}

func (e *Engine) checkCutRectInto(cutBelow int, r geom.Rect, net int, ctx *QueryCtx, notes bool, out []Violation) []Violation {
	c := e.Tech.Cut(cutBelow)
	if c == nil {
		return out
	}
	e.Counters.CutChecks.Add(1)
	before := len(out)
	win := r.Bloat(c.Spacing)
	for _, id := range e.QueryCutCtx(cutBelow, win, ctx) {
		or := e.rect(id)
		if or == r {
			continue // the same via
		}
		if r.Overlaps(or) {
			ov, _ := r.Intersect(or)
			v := Violation{Rule: "Short", Layer: c.Name, Where: ov}
			if notes {
				v.Note = fmt.Sprintf("cut overlaps %s (net %d)", e.describe(id), e.objs[id].net)
			}
			out = append(out, v)
			continue
		}
		if d := r.DistSquared(or); d < c.Spacing*c.Spacing {
			v := Violation{Rule: "CutSpacing", Layer: c.Name, Where: r.UnionBBox(or)}
			if notes {
				v.Note = fmt.Sprintf("cut within %d of %s (net %d)", c.Spacing, e.describe(id), e.objs[id].net)
			}
			out = append(out, v)
		}
	}
	e.Counters.Violations.Add(int64(len(out) - before))
	return out
}

// CheckMinWidth validates a shape's minimum dimension on the layer.
func CheckMinWidth(l *tech.RoutingLayer, r geom.Rect) []Violation {
	if l.MinWid > 0 && r.MinDim() < l.MinWid {
		return []Violation{{Rule: "MinWidth", Layer: l.Name, Where: r,
			Note: fmt.Sprintf("width %d < %d", r.MinDim(), l.MinWid)}}
	}
	return nil
}

// CheckMinStepUnion checks the outline of the union of rects against the
// layer's min-step rule: any maximal run of consecutive outline edges shorter
// than MinStepLength whose length exceeds MaxEdges is a violation (MaxEdges=0
// forbids short edges entirely).
func CheckMinStepUnion(l *tech.RoutingLayer, rects []geom.Rect) []Violation {
	return checkMinStepUnionInto(l, rects, nil, true, nil)
}

func checkMinStepUnionInto(l *tech.RoutingLayer, rects []geom.Rect, qc *QueryCtx, notes bool, out []Violation) []Violation {
	if !l.Step.Enabled() {
		return out
	}
	var polys []geom.Polygon
	if qc != nil {
		polys = qc.union.Union(rects)
	} else {
		polys = geom.UnionRects(rects)
	}
	for _, poly := range polys {
		out = checkRingStepsInto(l, poly.Outer, qc, notes, out)
		for _, hole := range poly.Holes {
			out = checkRingStepsInto(l, hole, qc, notes, out)
		}
	}
	return out
}

func checkRingStepsInto(l *tech.RoutingLayer, ring geom.Ring, qc *QueryCtx, notes bool, out []Violation) []Violation {
	n := len(ring)
	if n == 0 {
		return out
	}
	var short []bool
	if qc != nil {
		if cap(qc.steps) < n {
			qc.steps = make([]bool, n)
		}
		qc.steps = qc.steps[:n]
		short = qc.steps
	} else {
		short = make([]bool, n)
	}
	edgeEnd := func(i int) int {
		if i == n-1 {
			return 0
		}
		return i + 1
	}
	allShort := true
	for i := 0; i < n; i++ {
		short[i] = ring[i].ManhattanDist(ring[edgeEnd(i)]) < l.Step.MinStepLength
		allShort = allShort && short[i]
	}
	if allShort {
		v := Violation{Rule: "MinStep", Layer: l.Name, Where: ring.BBox()}
		if notes {
			v.Note = fmt.Sprintf("entire contour shorter than min step %d", l.Step.MinStepLength)
		}
		return append(out, v)
	}
	// Walk circular runs starting after a non-short edge.
	start := 0
	for short[start] {
		start++
	}
	run := 0
	runBox := geom.Rect{}
	for k := 1; k <= n; k++ {
		i := (start + k) % n
		if short[i] {
			a, b := ring[i], ring[edgeEnd(i)]
			er := geom.R(a.X, a.Y, b.X, b.Y)
			if run == 0 {
				runBox = er
			} else {
				runBox = runBox.UnionBBox(er)
			}
			run++
			continue
		}
		if run > l.Step.MaxEdges {
			v := Violation{Rule: "MinStep", Layer: l.Name, Where: runBox}
			if notes {
				v.Note = fmt.Sprintf("%d consecutive edges shorter than %d (max %d)", run, l.Step.MinStepLength, l.Step.MaxEdges)
			}
			out = append(out, v)
		}
		run = 0
	}
	return out
}

// CheckMinAreaUnion checks each connected component of the union of rects
// against the layer's minimum-area rule.
func CheckMinAreaUnion(l *tech.RoutingLayer, rects []geom.Rect) []Violation {
	if l.Area <= 0 {
		return nil
	}
	var out []Violation
	for _, poly := range geom.UnionRects(rects) {
		if a := poly.Area(); a < l.Area {
			out = append(out, Violation{Rule: "MinArea", Layer: l.Name, Where: poly.BBox(),
				Note: fmt.Sprintf("area %d < %d", a, l.Area)})
		}
	}
	return out
}

// CheckMinEnclosedAreaUnion checks every hole of the union of rects against
// the layer's minimum enclosed area rule (a metal ring may not surround a
// hole smaller than EncArea).
func CheckMinEnclosedAreaUnion(l *tech.RoutingLayer, rects []geom.Rect) []Violation {
	if l.EncArea <= 0 {
		return nil
	}
	var out []Violation
	for _, poly := range geom.UnionRects(rects) {
		for _, hole := range poly.Holes {
			if a := -hole.SignedArea2() / 2; a < l.EncArea {
				out = append(out, Violation{Rule: "MinEnclosedArea", Layer: l.Name, Where: hole.BBox(),
					Note: fmt.Sprintf("enclosed area %d < %d", a, l.EncArea)})
			}
		}
	}
	return out
}

// CheckEOLRect treats r as a wire-like shape on layer and applies the
// end-of-line rule to its two end edges (the edges spanning the shape's
// narrow dimension): if the end edge is shorter than EOLWidth, a clearance
// window extending EOLSpace beyond the edge and widened by EOLWithin must be
// free of different-net shapes.
func (e *Engine) CheckEOLRect(layer int, r geom.Rect, net int) []Violation {
	return e.checkEOLRectInto(layer, r, net, nil, true, nil)
}

func (e *Engine) checkEOLRectInto(layer int, r geom.Rect, net int, ctx *QueryCtx, notes bool, out []Violation) []Violation {
	l := e.Tech.Metal(layer)
	if l == nil {
		return out
	}
	e.Counters.EOLChecks.Add(1)
	before := len(out)
	wins, nw := eolWindows(l, r)
	for _, win := range wins[:nw] {
		for _, id := range e.QueryMetalCtx(layer, win, ctx) {
			oNet := e.objs[id].net
			if sameNet(net, int(oNet)) {
				continue
			}
			if win.Overlaps(e.rect(id)) {
				v := Violation{Rule: "EOL", Layer: l.Name, Where: win}
				if notes {
					v.Note = fmt.Sprintf("end-of-line window blocked by %s (net %d)", e.describe(id), oNet)
				}
				out = append(out, v)
				break
			}
		}
	}
	e.Counters.Violations.Add(int64(len(out) - before))
	return out
}

// CheckVia validates dropping via v at point p for the given net:
//
//   - bottom enclosure: shorts/spacing on the lower metal, end-of-line, and
//     min step on the union of the enclosure with the connected same-net pin
//     shapes (sameNetRects) — the Fig. 3 check;
//   - top enclosure: shorts/spacing and min step on the upper metal;
//   - cut: cut spacing.
//
// sameNetRects are the fixed same-net shapes on the lower metal (typically
// the pin's rectangles); only those transitively touching the enclosure join
// the min-step union.
func (e *Engine) CheckVia(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect) []Violation {
	return e.CheckViaCtx(v, p, net, sameNetRects, nil)
}

// CheckViaCtx is CheckVia with caller-owned query state for concurrent
// read-only validation against a frozen engine.
func (e *Engine) CheckViaCtx(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, ctx *QueryCtx) []Violation {
	e.Counters.ViaChecks.Add(1)
	var out []Violation
	if e.FaultHook != nil {
		out = append(out, e.FaultHook(SiteCheckVia)...)
	}
	out = e.checkViaInto(v, p, net, sameNetRects, ctx, true, out)
	out = Dedup(out)
	if len(out) == 0 {
		e.Counters.ViaClean.Add(1)
	}
	return out
}

// checkViaInto is the shared via rule sequence. The verdict path reuses it
// with notes=false and the QueryCtx violation arena as out.
func (e *Engine) checkViaInto(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, qc *QueryCtx, notes bool, out []Violation) []Violation {
	k := v.CutBelow
	bot := v.BotRect(p)
	top := v.TopRect(p)

	out = e.checkMetalRectInto(k, bot, net, qc, notes, out)
	out = e.checkMetalRectInto(k+1, top, net, qc, notes, out)
	for _, cr := range v.Cuts {
		out = e.checkCutRectInto(k, cr.Shift(p), net, qc, notes, out)
	}
	out = e.checkEOLRectInto(k, bot, net, qc, notes, out)
	out = e.checkEOLRectInto(k+1, top, net, qc, notes, out)

	if lb := e.Tech.Metal(k); lb.Step.Enabled() {
		e.Counters.MinStepChecks.Add(1)
		before := len(out)
		out = checkMinStepUnionInto(lb, connectedToCtx(bot, sameNetRects, qc), qc, notes, out)
		e.Counters.Violations.Add(int64(len(out) - before))
	}
	if lt := e.Tech.Metal(k + 1); lt.Step.Enabled() {
		e.Counters.MinStepChecks.Add(1)
		before := len(out)
		topArr := [1]geom.Rect{top}
		out = checkMinStepUnionInto(lt, topArr[:], qc, notes, out)
		e.Counters.Violations.Add(int64(len(out) - before))
	}
	return out
}

// checkViaVerdictCount is CheckViaCtx without report construction: the number
// of deduplicated violations the report path would return, computed entirely
// on the QueryCtx arena. Counters move exactly as on the report path.
func (e *Engine) checkViaVerdictCount(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, qc *QueryCtx) int {
	e.Counters.ViaChecks.Add(1)
	out := e.checkViaInto(v, p, net, sameNetRects, qc, false, qc.viol[:0])
	qc.viol = out
	n := countDistinctKeys(out, qc)
	if n == 0 {
		e.Counters.ViaClean.Add(1)
	}
	return n
}

// countDistinctKeys counts distinct dedup keys by linear scan — violation
// lists from one via check are tiny, so this beats a map and allocates
// nothing.
func countDistinctKeys(vs []Violation, qc *QueryCtx) int {
	if len(vs) <= 1 {
		return len(vs)
	}
	keys := qc.keys[:0]
	for i := range vs {
		k := vs[i].key()
		dup := false
		for _, seen := range keys {
			if seen == k {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	qc.keys = keys
	return len(keys)
}

// connectedTo returns seed plus every rect transitively touching it.
func connectedTo(seed geom.Rect, rects []geom.Rect) []geom.Rect {
	out := []geom.Rect{seed}
	used := make([]bool, len(rects))
	return connectedInto(seed, rects, out, used)
}

// connectedToCtx is connectedTo on the QueryCtx arena; the result aliases
// qc.rects and is valid until the next connectedToCtx call on the same
// context.
func connectedToCtx(seed geom.Rect, rects []geom.Rect, qc *QueryCtx) []geom.Rect {
	if qc == nil {
		return connectedTo(seed, rects)
	}
	out := append(qc.rects[:0], seed)
	if cap(qc.used) < len(rects) {
		qc.used = make([]bool, len(rects))
	}
	qc.used = qc.used[:len(rects)]
	for i := range qc.used {
		qc.used[i] = false
	}
	out = connectedInto(seed, rects, out, qc.used)
	qc.rects = out
	return out
}

func connectedInto(seed geom.Rect, rects []geom.Rect, out []geom.Rect, used []bool) []geom.Rect {
	for changed := true; changed; {
		changed = false
		for i, r := range rects {
			if used[i] {
				continue
			}
			for _, u := range out {
				if u.Touches(r) {
					out = append(out, r)
					used[i] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// CheckAll runs pairwise shorts/spacing over every indexed metal shape and
// cut spacing over every indexed cut — the post-route full-design check.
// Each violating pair is reported once.
func (e *Engine) CheckAll() []Violation {
	e.Compact() // fold churn (and close a bulk build) first
	var out []Violation
	for id := range e.objs {
		if e.objs[id].alive() {
			out = e.checkObjAgainst(id, nil, out)
		}
	}
	return Dedup(out)
}

// checkObjAgainst runs the pairwise checks of one object against the engine
// using the caller-owned query state (nil: fresh result slices); only pairs
// (id < jd) are reported so the full sweep sees each pair once.
func (e *Engine) checkObjAgainst(id int, qc *QueryCtx, out []Violation) []Violation {
	o := &e.objs[id]
	or := e.rect(id)
	before := len(out)
	pairs := int64(0)
	switch {
	case o.lay > 0:
		layer := int(o.lay)
		l := e.Tech.Metal(layer)
		win := or.Bloat(l.SpacingReach())
		for _, jd := range e.QueryMetalCtx(layer, win, qc) {
			if jd <= id {
				continue
			}
			pairs++
			qNet := int(e.objs[jd].net)
			if sameNet(int(o.net), qNet) {
				continue
			}
			out = checkMetalPairInto(l, or, int(o.net), e.describe(id), e.rect(jd), qNet, e.describe(jd), true, out)
		}
	case o.lay < 0:
		cutBelow := int(-o.lay)
		c := e.Tech.Cut(cutBelow)
		win := or.Bloat(c.Spacing)
		for _, jd := range e.QueryCutCtx(cutBelow, win, qc) {
			if jd <= id {
				continue
			}
			pairs++
			qr := e.rect(jd)
			if or.Overlaps(qr) {
				ov, _ := or.Intersect(qr)
				out = append(out, Violation{Rule: "Short", Layer: c.Name, Where: ov,
					Note: fmt.Sprintf("%s overlaps %s", e.describe(id), e.describe(jd))})
				continue
			}
			if d := or.DistSquared(qr); d < c.Spacing*c.Spacing {
				out = append(out, Violation{Rule: "CutSpacing", Layer: c.Name, Where: or.UnionBBox(qr),
					Note: fmt.Sprintf("%s within %d of %s", e.describe(id), c.Spacing, e.describe(jd))})
			}
		}
	}
	e.Counters.PairChecks.Add(pairs)
	e.Counters.Violations.Add(int64(len(out) - before))
	return out
}

// CheckAllParallel is CheckAll fanned across worker goroutines (each with its
// own QueryCtx), for post-route full-design checks on large results. The
// violation set matches CheckAll; ordering is normalized by sorting on Key.
func (e *Engine) CheckAllParallel(workers int) []Violation {
	workers = max(workers, 1)
	e.Compact() // before the fan-out: workers must not race a rebuild
	n := len(e.objs)
	results := make([][]Violation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qc := e.NewQueryCtx()
			var local []Violation
			for id := w; id < n; id += workers {
				if !e.objs[id].alive() {
					continue
				}
				local = e.checkObjAgainst(id, qc, local)
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	var all []Violation
	for _, r := range results {
		all = append(all, r...)
	}
	all = Dedup(all)
	sort.Slice(all, func(i, j int) bool { return all[i].Key() < all[j].Key() })
	return all
}
