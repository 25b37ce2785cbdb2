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
	win := r.Bloat(l.Spacing.MaxSpacing())
	for _, id := range e.QueryMetalCtx(layer, win, ctx) {
		oNet := int(e.snet[id])
		if sameNet(net, oNet) {
			continue
		}
		var tag string
		if notes {
			tag = e.objs[id].describe()
		}
		out = checkMetalPairInto(l, r, net, "candidate", e.objs[id].Rect, oNet, tag, notes, out)
	}
	e.Counters.Violations.Add(int64(len(out) - before))
	return out
}

// checkMetalPairInto applies short and spacing rules to one pair of
// different-net shapes on layer l. With notes=false the tags are ignored and
// the Note field stays empty (the dedup key is unaffected).
func checkMetalPairInto(l *tech.RoutingLayer, a geom.Rect, aNet int, aTag string, b geom.Rect, bNet int, bTag string, notes bool, out []Violation) []Violation {
	if a.Overlaps(b) {
		ov, _ := a.Intersect(b)
		v := Violation{Rule: "Short", Layer: l.Name, Where: ov}
		if notes {
			v.Note = fmt.Sprintf("%s (net %d) overlaps %s (net %d)", aTag, aNet, bTag, bNet)
		}
		return append(out, v)
	}
	w := a.MinDim()
	if bw := b.MinDim(); bw > w {
		w = bw
	}
	prl := a.PRL(b)
	diagonal := prl < 0
	if prl < 0 {
		prl = 0
	}
	req := l.MinSpacing(w, prl)
	// Diagonal neighbors with a wide participant fall under corner spacing.
	if diagonal && l.Corner.Enabled() && w >= l.Corner.EligibleWidth && l.Corner.Spacing > req {
		if a.DistSquared(b) < l.Corner.Spacing*l.Corner.Spacing {
			v := Violation{Rule: "CornerSpacing", Layer: l.Name, Where: a.UnionBBox(b)}
			if notes {
				v.Note = fmt.Sprintf("%s (net %d) corner within %d of %s (net %d)", aTag, aNet, l.Corner.Spacing, bTag, bNet)
			}
			return append(out, v)
		}
		return out
	}
	if req > 0 && a.DistSquared(b) < req*req {
		v := Violation{Rule: "Spacing", Layer: l.Name, Where: a.UnionBBox(b)}
		if notes {
			v.Note = fmt.Sprintf("%s (net %d) within %d of %s (net %d), prl %d", aTag, aNet, req, bTag, bNet, prl)
		}
		return append(out, v)
	}
	return out
}

// CheckMetalPairRects applies the short and spacing rules to one standalone
// pair of shapes on layer l (used for via-to-via compatibility checks that
// run without an engine context). Same-net pairs are exempt.
func CheckMetalPairRects(l *tech.RoutingLayer, a geom.Rect, aNet int, b geom.Rect, bNet int) []Violation {
	if sameNet(aNet, bNet) {
		return nil
	}
	return checkMetalPairInto(l, a, aNet, "a", b, bNet, "b", true, nil)
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

// CheckEOLPairRects applies the end-of-line rule between one standalone pair
// of different-net shapes on layer l, in both directions (a's windows against
// b and b's windows against a).
func CheckEOLPairRects(l *tech.RoutingLayer, a geom.Rect, aNet int, b geom.Rect, bNet int) []Violation {
	if sameNet(aNet, bNet) {
		return nil
	}
	var out []Violation
	wins, n := eolWindows(l, a)
	for _, win := range wins[:n] {
		if win.Overlaps(b) {
			out = append(out, Violation{Rule: "EOL", Layer: l.Name, Where: win,
				Note: fmt.Sprintf("end-of-line window blocked (nets %d/%d)", aNet, bNet)})
		}
	}
	wins, n = eolWindows(l, b)
	for _, win := range wins[:n] {
		if win.Overlaps(a) {
			out = append(out, Violation{Rule: "EOL", Layer: l.Name, Where: win,
				Note: fmt.Sprintf("end-of-line window blocked (nets %d/%d)", bNet, aNet)})
		}
	}
	return out
}

// CheckCutPairRects applies the cut spacing rule to one standalone pair of
// cuts on cut layer c. Coincident cuts are the same via and exempt; net
// membership is irrelevant for cut spacing.
func CheckCutPairRects(c *tech.CutLayer, a, b geom.Rect) []Violation {
	if a == b {
		return nil
	}
	if a.Overlaps(b) {
		ov, _ := a.Intersect(b)
		return []Violation{{Rule: "Short", Layer: c.Name, Where: ov, Note: "cuts overlap"}}
	}
	if d := a.DistSquared(b); d < c.Spacing*c.Spacing {
		return []Violation{{Rule: "CutSpacing", Layer: c.Name, Where: a.UnionBBox(b),
			Note: fmt.Sprintf("cuts within %d", c.Spacing)}}
	}
	return nil
}

// CheckCutRect validates a hypothetical via cut on cut layer cutBelow: cut
// spacing applies regardless of net (two same-net vias still need clearance);
// an identical coincident cut is treated as the same via and skipped.
func (e *Engine) CheckCutRect(cutBelow int, r geom.Rect, net int) []Violation {
	return e.CheckCutRectCtx(cutBelow, r, net, nil)
}

// CheckCutRectCtx is CheckCutRect with caller-owned query state.
func (e *Engine) CheckCutRectCtx(cutBelow int, r geom.Rect, net int, ctx *QueryCtx) []Violation {
	return e.checkCutRectInto(cutBelow, r, net, ctx, true, nil)
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
		o := &e.objs[id]
		if o.Rect == r {
			continue // the same via
		}
		if r.Overlaps(o.Rect) {
			ov, _ := r.Intersect(o.Rect)
			v := Violation{Rule: "Short", Layer: c.Name, Where: ov}
			if notes {
				v.Note = fmt.Sprintf("cut overlaps %s (net %d)", o.describe(), o.Net)
			}
			out = append(out, v)
			continue
		}
		if d := r.DistSquared(o.Rect); d < c.Spacing*c.Spacing {
			v := Violation{Rule: "CutSpacing", Layer: c.Name, Where: r.UnionBBox(o.Rect)}
			if notes {
				v.Note = fmt.Sprintf("cut within %d of %s (net %d)", c.Spacing, o.describe(), o.Net)
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
	return e.CheckEOLRectCtx(layer, r, net, nil)
}

// CheckEOLRectCtx is CheckEOLRect with caller-owned query state.
func (e *Engine) CheckEOLRectCtx(layer int, r geom.Rect, net int, ctx *QueryCtx) []Violation {
	return e.checkEOLRectInto(layer, r, net, ctx, true, nil)
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
			if sameNet(net, int(e.snet[id])) {
				continue
			}
			if win.Overlaps(e.objs[id].Rect) {
				v := Violation{Rule: "EOL", Layer: l.Name, Where: win}
				if notes {
					v.Note = fmt.Sprintf("end-of-line window blocked by %s (net %d)", e.objs[id].describe(), e.objs[id].Net)
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
	e.Compact() // exclusive caller by the stamp contract; fold churn first
	var out []Violation
	pairs := int64(0)
	for id := range e.objs {
		if !e.alive[id] {
			continue
		}
		o := &e.objs[id]
		switch {
		case o.MetalLayer > 0:
			l := e.Tech.Metal(o.MetalLayer)
			win := o.Rect.Bloat(l.Spacing.MaxSpacing())
			for _, jd := range e.QueryMetal(o.MetalLayer, win) {
				if jd <= id {
					continue
				}
				pairs++
				q := &e.objs[jd]
				if sameNet(o.Net, q.Net) {
					continue
				}
				out = checkMetalPairInto(l, o.Rect, o.Net, o.describe(), q.Rect, q.Net, q.describe(), true, out)
			}
		case o.CutBelow > 0:
			c := e.Tech.Cut(o.CutBelow)
			win := o.Rect.Bloat(c.Spacing)
			for _, jd := range e.QueryCut(o.CutBelow, win) {
				if jd <= id {
					continue
				}
				pairs++
				q := &e.objs[jd]
				if o.Rect.Overlaps(q.Rect) {
					ov, _ := o.Rect.Intersect(q.Rect)
					out = append(out, Violation{Rule: "Short", Layer: c.Name, Where: ov,
						Note: fmt.Sprintf("%s overlaps %s", o.describe(), q.describe())})
					continue
				}
				if d := o.Rect.DistSquared(q.Rect); d < c.Spacing*c.Spacing {
					out = append(out, Violation{Rule: "CutSpacing", Layer: c.Name, Where: o.Rect.UnionBBox(q.Rect),
						Note: fmt.Sprintf("%s within %d of %s", o.describe(), c.Spacing, q.describe())})
				}
			}
		}
	}
	e.Counters.PairChecks.Add(pairs)
	e.Counters.Violations.Add(int64(len(out)))
	return Dedup(out)
}

// checkObjAgainst runs the pairwise checks of one object against the engine
// using the caller-owned query state; only pairs (id < jd) are reported so
// the full sweep sees each pair once.
func (e *Engine) checkObjAgainst(id int, qc *QueryCtx, out []Violation) []Violation {
	o := &e.objs[id]
	before := len(out)
	pairs := int64(0)
	switch {
	case o.MetalLayer > 0:
		l := e.Tech.Metal(o.MetalLayer)
		win := o.Rect.Bloat(l.Spacing.MaxSpacing())
		for _, jd := range e.QueryMetalCtx(o.MetalLayer, win, qc) {
			if jd <= id {
				continue
			}
			pairs++
			q := &e.objs[jd]
			if sameNet(o.Net, q.Net) {
				continue
			}
			out = checkMetalPairInto(l, o.Rect, o.Net, o.describe(), q.Rect, q.Net, q.describe(), true, out)
		}
	case o.CutBelow > 0:
		c := e.Tech.Cut(o.CutBelow)
		win := o.Rect.Bloat(c.Spacing)
		for _, jd := range e.QueryCutCtx(o.CutBelow, win, qc) {
			if jd <= id {
				continue
			}
			pairs++
			q := &e.objs[jd]
			if o.Rect.Overlaps(q.Rect) {
				ov, _ := o.Rect.Intersect(q.Rect)
				out = append(out, Violation{Rule: "Short", Layer: c.Name, Where: ov,
					Note: fmt.Sprintf("%s overlaps %s", o.describe(), q.describe())})
				continue
			}
			if d := o.Rect.DistSquared(q.Rect); d < c.Spacing*c.Spacing {
				out = append(out, Violation{Rule: "CutSpacing", Layer: c.Name, Where: o.Rect.UnionBBox(q.Rect),
					Note: fmt.Sprintf("%s within %d of %s", o.describe(), c.Spacing, q.describe())})
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
	if workers < 2 {
		out := e.CheckAll()
		sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
		return out
	}
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
				if !e.alive[id] {
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
