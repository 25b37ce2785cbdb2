package pao

import (
	"slices"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/tech"
)

// genAccessPoints implements Algorithm 1: pin-based access point generation.
// Candidate coordinates are enumerated per coordinate type — all four types
// for the layer's preferred direction, the first three for the non-preferred
// direction — in cost order, validated with the DRC engine of sc, and the
// loop early-terminates once at least Cfg.K valid points exist.
func (a *Analyzer) genAccessPoints(sc *cellScratch, pivot *db.Instance, pin *db.MPin, net int) *PinAccess {
	pa := &PinAccess{Pin: pin}
	sc.aps = sc.aps[:0]
	sc.layers = pin.AppendLayers(sc.layers[:0])
	for _, layer := range sc.layers {
		a.genAccessPointsOnLayer(sc, pivot, pin, net, layer)
		if len(sc.aps) >= a.Cfg.K {
			break
		}
	}
	if len(sc.aps) > 0 {
		pa.APs = slices.Clone(sc.aps)
	}
	return pa
}

// coordCandidates holds the per-type candidate coordinates for one axis of
// one maximal pin rectangle.
type coordCandidates [4][]int64

// genAccessPointsOnLayer runs Algorithm 1 on one layer of the pin, appending
// the access points it accepts to sc.aps.
func (a *Analyzer) genAccessPointsOnLayer(sc *cellScratch, pivot *db.Instance, pin *db.MPin, net, layer int) {
	l := a.Design.Tech.Metal(layer)
	if l == nil {
		return
	}
	sc.pinRects = appendPinRects(sc.pinRects[:0], pivot, pin, layer)
	rects := sc.maxRects.MaxRects(sc.pinRects)
	if len(rects) == 0 {
		return
	}
	vias := a.vias[layer]
	if a.viaCache != nil {
		sc.focusPin(vias)
	}

	sc.prefTracks, sc.nonPrefTracks = a.Design.AppendAccessTracks(sc.prefTracks[:0], sc.nonPrefTracks[:0], layer)

	// Per maximal rect, candidates for the preferred-direction coordinate
	// (all four types) and the non-preferred one (first three types).
	sc.pref = resetCands(sc.pref, len(rects))
	sc.nonPref = resetCands(sc.nonPref, len(rects))
	for i, r := range rects {
		var prefLo, prefHi, npLo, npHi int64
		if l.Dir == tech.Horizontal {
			prefLo, prefHi = r.SpanY()
			npLo, npHi = r.SpanX()
		} else {
			prefLo, prefHi = r.SpanX()
			npLo, npHi = r.SpanY()
		}
		axisCandidates(&sc.pref[i], sc.prefTracks, prefLo, prefHi, vias, l.Dir, true)
		axisCandidates(&sc.nonPref[i], sc.nonPrefTracks, npLo, npHi, nil, l.Dir, false)
	}

	clear(sc.seen)
	core := pivot.Master.Class == db.ClassCore
	// Algorithm 1 main loop: non-preferred type outer, preferred type inner,
	// both in ascending cost order.
	for _, t1 := range [...]CoordType{OnTrack, HalfTrack, ShapeCenter} {
		if !a.Cfg.typeAllowed(t1) {
			continue
		}
		for _, t0 := range [...]CoordType{OnTrack, HalfTrack, ShapeCenter, EncBoundary} {
			if !a.Cfg.typeAllowed(t0) {
				continue
			}
			for i := range rects {
				for _, pc := range sc.pref[i][t0] {
					for _, nc := range sc.nonPref[i][t1] {
						pt := geom.Pt(nc, pc)
						if l.Dir == tech.Vertical {
							pt = geom.Pt(pc, nc)
						}
						if _, dup := sc.seen[pt]; dup {
							continue
						}
						sc.seen[pt] = struct{}{}
						a.decideAP(sc, pt, layer, net, pin.Name, vias, core, t0, t1, l.Dir)
					}
				}
			}
			if len(sc.aps) >= a.Cfg.K {
				return
			}
		}
	}
}

// focusPin gathers, through sc.qc, the neighbourhood that the via signature
// of every candidate on the pin shapes sc.pinRects reads. A via's signature
// windows at p are its windows at the origin moved by p, and a candidate
// that reaches the via lookups lies on the pin, so inside the shapes'
// bounding box: the windows at the box's low and high corners span those of
// every such candidate. So a signature filters the gathered records instead
// of running its index queries.
func (sc *cellScratch) focusPin(vias []*tech.ViaDef) {
	if len(vias) == 0 {
		return
	}
	bb := sc.pinRects[0]
	for _, r := range sc.pinRects[1:] {
		bb = bb.UnionBBox(r)
	}
	lo, hi := geom.Pt(bb.XL, bb.YL), geom.Pt(bb.XH, bb.YH)
	for _, v := range vias {
		sc.eng.FocusVia(v, lo, sc.qc)
		sc.eng.FocusVia(v, hi, sc.qc)
	}
	sc.eng.Focus(sc.qc)
}

// resetCands returns cs with n entries, each with its slices emptied but
// their storage kept.
func resetCands(cs []coordCandidates, n int) []coordCandidates {
	cs = slices.Grow(cs[:0], n)[:n]
	for i := range cs {
		for t := range cs[i] {
			cs[i][t] = cs[i][t][:0]
		}
	}
	return cs
}

// axisCandidates appends to out the candidate coordinates of each type
// along one axis within [lo, hi] (the maximal rectangle's span on that
// axis).
//
//   - OnTrack: every track coordinate inside the span;
//   - HalfTrack: midpoints between neighboring tracks inside the span;
//   - ShapeCenter: the span midpoint, skipped when the span touches two or
//     more tracks (Section II-C's rule for limiting unique off-track coords);
//   - EncBoundary (preferred axis only): coordinates aligning each via
//     variant's bottom-enclosure edge with the span boundary.
func axisCandidates(out *coordCandidates, tracks []db.TrackPattern, lo, hi int64, vias []*tech.ViaDef, layerDir tech.Dir, preferred bool) {
	onTrackCount := 0
	for _, tp := range tracks {
		first, last := tp.Range(lo, hi)
		for c := first; c <= last; c += tp.Step {
			out[OnTrack] = append(out[OnTrack], c)
			onTrackCount++
		}
		// Half-track: midpoints of neighboring tracks whose midpoint falls
		// inside the span.
		first, last = tp.Range(lo-tp.Step, hi)
		for c := first; c <= last; c += tp.Step {
			if m := c + tp.Step/2; m >= lo && m <= hi {
				out[HalfTrack] = append(out[HalfTrack], m)
			}
		}
	}
	if onTrackCount < 2 {
		out[ShapeCenter] = append(out[ShapeCenter], (lo+hi)/2)
	}
	if preferred {
		for _, v := range vias {
			// The bottom enclosure's span on this axis, relative to origin.
			var encLo, encHi int64
			if layerDir == tech.Horizontal { // preferred coord is y
				encLo, encHi = v.BotEnc.YL, v.BotEnc.YH
			} else {
				encLo, encHi = v.BotEnc.XL, v.BotEnc.XH
			}
			for _, c := range [...]int64{lo - encLo, hi - encHi} {
				if c >= lo && c <= hi && !slices.Contains(out[EncBoundary], c) {
					out[EncBoundary] = append(out[EncBoundary], c)
				}
			}
		}
		slices.Sort(out[EncBoundary])
	}
	slices.Sort(out[OnTrack])
	slices.Sort(out[HalfTrack])
}

// decideAP validates one candidate point and, when it is accepted, appends
// its access point to sc.aps; an Explain run records the decision either
// way.
func (a *Analyzer) decideAP(sc *cellScratch, pt geom.Point, layer, net int, pinName string,
	vias []*tech.ViaDef, core bool, t0, t1 CoordType, dir tech.Dir) {

	dirs, reject := a.validateAP(sc, pt, layer, net, vias, core)
	if reject == "" {
		ap := &AccessPoint{Pos: pt, Layer: layer, OnPref: t0, Dirs: dirs}
		if dir == tech.Horizontal {
			ap.TypeY, ap.TypeX = t0, t1
		} else {
			ap.TypeX, ap.TypeY = t0, t1
		}
		if len(sc.clean) > 0 {
			ap.Vias = slices.Clone(sc.clean)
		}
		sc.aps = append(sc.aps, ap)
	}
	if a.rec != nil {
		a.rec.RecordAP(pinName, apAudit(pt, layer, t0, t1, dir, reject, sc.verdicts, dirs))
	}
}

// validateAP checks one candidate point, whose pin has the shapes
// sc.pinRects on the layer, and returns its clean access directions, or the
// reason it is rejected. The point must lie on the pin shape. Every via
// variant's verdict is looked up into sc.verdicts, and the clean variants
// collect in sc.clean (up access; the first is primary). Standard cells
// require via access when Cfg.RequireVia is set (footnote 1), so a core-cell
// candidate without a clean via is rejected here: its planar stubs could not
// change that. Otherwise a wire stub in each compass direction must be
// spacing-clean against the cell context; macro pins accept planar-only
// access points.
func (a *Analyzer) validateAP(sc *cellScratch, pt geom.Point, layer, net int, vias []*tech.ViaDef, core bool) (dirs [5]bool, reject string) {
	sc.verdicts, sc.clean = sc.verdicts[:0], sc.clean[:0]
	if !geom.CoversPt(sc.pinRects, pt) {
		return dirs, RejectOffPin
	}
	// The verdict cache short-circuits repeats of the same local geometry
	// across candidate points and unique-instance classes.
	for _, v := range vias {
		verdict, cached := sc.eng.CheckViaVerdictProvCtx(v, pt, net, sc.pinRects, sc.qc)
		sc.verdicts = append(sc.verdicts, ViaAudit{Via: v.Name, Violations: verdict, FromCache: cached})
		if verdict == 0 {
			sc.clean = append(sc.clean, v)
		}
	}
	dirs[DirUp] = len(sc.clean) > 0
	if a.Cfg.RequireVia && core && !dirs[DirUp] {
		return dirs, RejectViaRequired
	}
	l := a.Design.Tech.Metal(layer)
	hw := l.Width / 2
	ext := 2 * l.Pitch
	stubs := [...]struct {
		d AccessDir
		r geom.Rect
	}{
		{DirEast, geom.R(pt.X, pt.Y-hw, pt.X+ext, pt.Y+hw)},
		{DirWest, geom.R(pt.X-ext, pt.Y-hw, pt.X, pt.Y+hw)},
		{DirNorth, geom.R(pt.X-hw, pt.Y, pt.X+hw, pt.Y+ext)},
		{DirSouth, geom.R(pt.X-hw, pt.Y-ext, pt.X+hw, pt.Y)},
	}
	for _, s := range stubs {
		if sc.eng.CheckMetalRectCountCtx(layer, s.r, net, sc.qc) == 0 {
			dirs[s.d] = true
		}
	}
	if dirs == [5]bool{} {
		return dirs, RejectNoAccess
	}
	return dirs, ""
}

// apAudit assembles the decision record for one candidate access point from
// its via verdicts (none when it was rejected off the pin) and its clean
// directions.
func apAudit(pt geom.Point, layer int, t0, t1 CoordType, dir tech.Dir, reject string,
	vias []ViaAudit, dirs [5]bool) APAudit {

	au := APAudit{
		X: pt.X, Y: pt.Y, Layer: layer,
		Accepted: reject == "", Reject: reject,
	}
	if len(vias) > 0 {
		au.Vias = slices.Clone(vias)
	}
	if dir == tech.Horizontal {
		au.TypeY, au.TypeX = t0.String(), t1.String()
	} else {
		au.TypeX, au.TypeY = t0.String(), t1.String()
	}
	for d := DirUp; d <= DirSouth; d++ {
		if dirs[d] {
			au.Dirs = append(au.Dirs, d.String())
		}
	}
	return au
}
