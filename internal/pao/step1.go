package pao

import (
	"sort"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
)

// genAccessPoints implements Algorithm 1: pin-based access point generation.
// Candidate coordinates are enumerated per coordinate type — all four types
// for the layer's preferred direction, the first three for the non-preferred
// direction — in cost order, validated with the DRC engine, and the loop
// early-terminates once at least Cfg.K valid points exist.
func (a *Analyzer) genAccessPoints(eng *drc.Engine, qc *drc.QueryCtx, pivot *db.Instance, pin *db.MPin, net int) *PinAccess {
	pa := &PinAccess{Pin: pin}
	for _, layer := range pin.Layers() {
		a.genAccessPointsOnLayer(eng, qc, pivot, pin, net, layer, pa)
		if len(pa.APs) >= a.Cfg.K {
			break
		}
	}
	return pa
}

// coordCandidates holds the per-type candidate coordinates for one axis of
// one maximal pin rectangle.
type coordCandidates [4][]int64

func (a *Analyzer) genAccessPointsOnLayer(eng *drc.Engine, qc *drc.QueryCtx, pivot *db.Instance, pin *db.MPin, net, layer int, pa *PinAccess) {
	l := a.Design.Tech.Metal(layer)
	if l == nil {
		return
	}
	allPinRects := appendPinRects(nil, pivot, pin, layer)
	rects := geom.MaxRects(allPinRects)
	if len(rects) == 0 {
		return
	}
	vias := a.Design.Tech.ViasAbove(layer)

	prefTracks, nonPrefTracks := a.Design.AccessTracks(layer)

	// Per maximal rect, candidates for the preferred-direction coordinate
	// (all four types) and the non-preferred one (first three types).
	prefCands := make([]coordCandidates, len(rects))
	nonPrefCands := make([]coordCandidates, len(rects))
	for i, r := range rects {
		var prefLo, prefHi, npLo, npHi int64
		if l.Dir == tech.Horizontal {
			prefLo, prefHi = r.SpanY()
			npLo, npHi = r.SpanX()
		} else {
			prefLo, prefHi = r.SpanX()
			npLo, npHi = r.SpanY()
		}
		prefCands[i] = a.axisCandidates(prefTracks, prefLo, prefHi, vias, l.Dir, true)
		nonPrefCands[i] = a.axisCandidates(nonPrefTracks, npLo, npHi, nil, l.Dir, false)
	}

	seen := make(map[geom.Point]bool, 8)
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
				for _, pc := range prefCands[i][t0] {
					for _, nc := range nonPrefCands[i][t1] {
						pt := geom.Pt(nc, pc)
						if l.Dir == tech.Vertical {
							pt = geom.Pt(pc, nc)
						}
						if seen[pt] {
							continue
						}
						seen[pt] = true
						ap := a.validateAP(eng, qc, pt, layer, net, pin.Name, allPinRects, vias, pivot.Master.Class, t0, t1, l.Dir)
						if ap != nil {
							pa.APs = append(pa.APs, ap)
						}
					}
				}
			}
			if len(pa.APs) >= a.Cfg.K {
				return
			}
		}
	}
}

// axisCandidates computes the candidate coordinates of each type along one
// axis within [lo, hi] (the maximal rectangle's span on that axis).
//
//   - OnTrack: every track coordinate inside the span;
//   - HalfTrack: midpoints between neighboring tracks inside the span;
//   - ShapeCenter: the span midpoint, skipped when the span touches two or
//     more tracks (Section II-C's rule for limiting unique off-track coords);
//   - EncBoundary (preferred axis only): coordinates aligning each via
//     variant's bottom-enclosure edge with the span boundary.
func (a *Analyzer) axisCandidates(tracks []db.TrackPattern, lo, hi int64, vias []*tech.ViaDef, layerDir tech.Dir, preferred bool) coordCandidates {
	var out coordCandidates
	onTrackCount := 0
	for _, tp := range tracks {
		for _, c := range tp.CoordsIn(lo, hi) {
			out[OnTrack] = append(out[OnTrack], c)
			onTrackCount++
		}
		// Half-track: midpoints of neighboring tracks whose midpoint falls
		// inside the span.
		for _, c := range tp.CoordsIn(lo-tp.Step, hi) {
			m := c + tp.Step/2
			if m >= lo && m <= hi {
				out[HalfTrack] = append(out[HalfTrack], m)
			}
		}
	}
	if onTrackCount < 2 {
		out[ShapeCenter] = append(out[ShapeCenter], (lo+hi)/2)
	}
	if preferred {
		seen := map[int64]bool{}
		for _, v := range vias {
			// The bottom enclosure's span on this axis, relative to origin.
			var encLo, encHi int64
			if layerDir == tech.Horizontal { // preferred coord is y
				encLo, encHi = v.BotEnc.YL, v.BotEnc.YH
			} else {
				encLo, encHi = v.BotEnc.XL, v.BotEnc.XH
			}
			for _, c := range [...]int64{lo - encLo, hi - encHi} {
				if c >= lo && c <= hi && !seen[c] {
					seen[c] = true
					out[EncBoundary] = append(out[EncBoundary], c)
				}
			}
		}
		sort.Slice(out[EncBoundary], func(i, j int) bool { return out[EncBoundary][i] < out[EncBoundary][j] })
	}
	for t := OnTrack; t <= HalfTrack; t++ {
		s := out[t]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return out
}

// validateAP checks one candidate point: it must lie on the pin shape, and a
// via must drop DRC-free (up access) and/or a planar escape stub must be
// DRC-clean. Standard cells require via access when Cfg.RequireVia is set
// (footnote 1); macro pins accept planar-only access points.
//
// When a.rec is attached (explain path) every decision — including rejects —
// is recorded with per-via verdict provenance; with rec nil the function is
// byte-for-byte the plain validation loop.
func (a *Analyzer) validateAP(eng *drc.Engine, qc *drc.QueryCtx, pt geom.Point, layer, net int, pinName string,
	pinRects []geom.Rect, vias []*tech.ViaDef, class db.MasterClass, t0, t1 CoordType, dir tech.Dir) *AccessPoint {

	rec := a.rec
	if !geom.CoversPt(pinRects, pt) {
		if rec != nil {
			rec.RecordAP(pinName, apAudit(pt, layer, t0, t1, dir, RejectOffPin, nil, nil))
		}
		return nil
	}
	ap := &AccessPoint{Pos: pt, Layer: layer, OnPref: t0}
	if dir == tech.Horizontal {
		ap.TypeY, ap.TypeX = t0, t1
	} else {
		ap.TypeX, ap.TypeY = t0, t1
	}
	// Up (via) access: collect the DRC-clean via variants; the first valid
	// one is primary. The verdict cache short-circuits repeats of the same
	// local geometry across candidate points and unique-instance classes.
	var viaAudits []ViaAudit
	for _, v := range vias {
		if rec == nil {
			if eng.CheckViaVerdictCtx(v, pt, net, pinRects, qc) == 0 {
				ap.Vias = append(ap.Vias, v)
			}
			continue
		}
		verdict, cached := eng.CheckViaVerdictProvCtx(v, pt, net, pinRects, qc)
		viaAudits = append(viaAudits, ViaAudit{Via: v.Name, Violations: verdict, FromCache: cached})
		if verdict == 0 {
			ap.Vias = append(ap.Vias, v)
		}
	}
	if len(ap.Vias) > 0 {
		ap.Dirs[DirUp] = true
	}
	// Planar access in the four compass directions: a wire stub from the
	// point outward must be spacing-clean against the cell context.
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
		if eng.CheckMetalRectCountCtx(layer, s.r, net, qc) == 0 {
			ap.Dirs[s.d] = true
		}
	}
	if a.Cfg.RequireVia && class == db.ClassCore && !ap.Dirs[DirUp] {
		if rec != nil {
			rec.RecordAP(pinName, apAudit(pt, layer, t0, t1, dir, RejectViaRequired, viaAudits, ap))
		}
		return nil
	}
	if !ap.Dirs[DirUp] && !ap.Dirs[DirEast] && !ap.Dirs[DirWest] && !ap.Dirs[DirNorth] && !ap.Dirs[DirSouth] {
		if rec != nil {
			rec.RecordAP(pinName, apAudit(pt, layer, t0, t1, dir, RejectNoAccess, viaAudits, ap))
		}
		return nil
	}
	if rec != nil {
		rec.RecordAP(pinName, apAudit(pt, layer, t0, t1, dir, "", viaAudits, ap))
	}
	return ap
}

// apAudit assembles the decision record for one candidate point; ap may be
// nil when the candidate was rejected before validation started.
func apAudit(pt geom.Point, layer int, t0, t1 CoordType, dir tech.Dir, reject string,
	vias []ViaAudit, ap *AccessPoint) APAudit {

	au := APAudit{
		X: pt.X, Y: pt.Y, Layer: layer,
		Accepted: reject == "", Reject: reject, Vias: vias,
	}
	if dir == tech.Horizontal {
		au.TypeY, au.TypeX = t0.String(), t1.String()
	} else {
		au.TypeX, au.TypeY = t0.String(), t1.String()
	}
	if ap != nil {
		for d := DirUp; d <= DirSouth; d++ {
			if ap.Dirs[d] {
				au.Dirs = append(au.Dirs, d.String())
			}
		}
	}
	return au
}
