// Package baseline reimplements the pin access strategy of the pre-PAO
// TritonRoute v0.0.6.0 — the "TrRte" columns of Tables II and III. Compared
// to the paper's framework it:
//
//   - generates access points only at preferred/non-preferred track crossings
//     and shape centers (no half-track or enclosure-boundary coordinates);
//   - "validates" candidates with a naive overlap-only scan over all of the
//     cell's shapes (no spatial index, no spacing/min-step/end-of-line
//     awareness), so access points with real DRC violations slip through —
//     the "#Dirty APs" column;
//   - always assigns the default via variant;
//   - picks the first access point per pin independently, with no intra-cell
//     or inter-cell compatibility analysis — the "#Failed Pins" column.
//
// The output reuses the pao result types so the experiment harness evaluates
// both flows identically.
package baseline

import (
	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/tech"
)

// K is the access point budget per pin, matching the PAAF setting.
const K = 3

// Analyze runs the baseline pin access flow and returns a pao.Result shaped
// like the PAAF output: one access pattern per unique instance choosing each
// pin's first access point.
func Analyze(d *db.Design) *pao.Result {
	res := &pao.Result{
		ByInstance: make(map[int]*pao.UniqueAccess),
		Selected:   make(map[int]int),
	}
	for _, ui := range d.UniqueInstances() {
		ua := analyzeUnique(d, ui)
		res.Unique = append(res.Unique, ua)
		for _, inst := range ui.Insts {
			res.ByInstance[inst.ID] = ua
			if len(ua.Patterns) > 0 {
				res.Selected[inst.ID] = 0
			}
		}
		res.Stats.NumUnique++
		res.Stats.TotalAPs += ua.TotalAPs()
		res.Stats.PatternsBuilt += len(ua.Patterns)
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				if ap.OffTrack() {
					res.Stats.OffTrackAPs++
				}
			}
		}
	}
	return res
}

// cellShape is one fixed shape of the pivot cell, for the naive scan.
type cellShape struct {
	layer int
	rect  geom.Rect
	pin   *db.MPin // nil for obstructions
}

func analyzeUnique(d *db.Design, ui *db.UniqueInstance) *pao.UniqueAccess {
	pivot := ui.Pivot()
	var shapes []cellShape
	for _, p := range pivot.Master.Pins {
		for _, s := range pivot.PinShapes(p) {
			shapes = append(shapes, cellShape{s.Layer, s.Rect, p})
		}
	}
	for _, s := range pivot.ObsShapes() {
		shapes = append(shapes, cellShape{s.Layer, s.Rect, nil})
	}

	ua := &pao.UniqueAccess{UI: ui, PivotPos: pivot.Pos}
	for _, pin := range pivot.Master.SignalPins() {
		ua.Pins = append(ua.Pins, genPin(d, pivot, pin, shapes))
	}
	// The baseline has no pin ordering or DP; its single "pattern" is the
	// first access point of every pin.
	choice := make([]int, len(ua.Pins))
	any := false
	for i, pa := range ua.Pins {
		if len(pa.APs) > 0 {
			choice[i] = 0
			any = true
		} else {
			choice[i] = -1
		}
	}
	if any {
		ua.Patterns = []*pao.AccessPattern{{Choice: choice}}
	}
	return ua
}

// genPin enumerates track-crossing and shape-center candidates over the pin's
// maximal rectangles and keeps the first K that pass the naive overlap scan.
func genPin(d *db.Design, pivot *db.Instance, pin *db.MPin, shapes []cellShape) *pao.PinAccess {
	pa := &pao.PinAccess{Pin: pin}
	for _, layer := range pin.Layers() {
		var rects []geom.Rect
		for _, s := range pivot.PinShapes(pin) {
			if s.Layer == layer {
				rects = append(rects, s.Rect)
			}
		}
		genPinOnLayer(d, pin, layer, geom.MaxRects(rects), shapes, pa)
		if len(pa.APs) >= K {
			break
		}
	}
	return pa
}

func genPinOnLayer(d *db.Design, pin *db.MPin, layer int, rects []geom.Rect, shapes []cellShape, pa *pao.PinAccess) {
	l := d.Tech.Metal(layer)
	if l == nil {
		return
	}
	vias := d.Tech.ViasAbove(layer)
	if len(vias) == 0 {
		return
	}
	defVia := vias[0] // the baseline always uses the default variant
	pref, nonPref := d.AccessTracks(layer)

	seen := map[geom.Point]bool{}
	emit := func(p geom.Point, tx, ty pao.CoordType) {
		if len(pa.APs) >= K || seen[p] {
			return
		}
		seen[p] = true
		if !naiveClean(defVia, p, pin, shapes) {
			return
		}
		ap := &pao.AccessPoint{Pos: p, Layer: layer, TypeX: tx, TypeY: ty,
			Vias: []*tech.ViaDef{defVia}}
		ap.Dirs[pao.DirUp] = true
		pa.APs = append(pa.APs, ap)
	}

	for _, r := range rects {
		var prefLo, prefHi, npLo, npHi int64
		if l.Dir == tech.Horizontal {
			prefLo, prefHi = r.SpanY()
			npLo, npHi = r.SpanX()
		} else {
			prefLo, prefHi = r.SpanX()
			npLo, npHi = r.SpanY()
		}
		var prefCoords, npCoords []int64
		for _, tp := range pref {
			prefCoords = append(prefCoords, tp.CoordsIn(prefLo, prefHi)...)
		}
		for _, tp := range nonPref {
			npCoords = append(npCoords, tp.CoordsIn(npLo, npHi)...)
		}
		for _, pc := range prefCoords {
			for _, nc := range npCoords {
				if l.Dir == tech.Horizontal {
					emit(geom.Pt(nc, pc), pao.OnTrack, pao.OnTrack)
				} else {
					emit(geom.Pt(pc, nc), pao.OnTrack, pao.OnTrack)
				}
			}
		}
		// Shape center as the fallback candidate.
		emit(r.Center(), pao.ShapeCenter, pao.ShapeCenter)
	}
}

// naiveClean is the baseline's legality test: the via's enclosures and cut
// must not overlap a shape belonging to a different pin or an obstruction.
// It scans every cell shape linearly (no index) and checks only overlap —
// spacing, min-step and end-of-line violations pass straight through, which
// is where the dirty access points of Table II come from.
func naiveClean(v *tech.ViaDef, p geom.Point, pin *db.MPin, shapes []cellShape) bool {
	bot := v.BotRect(p)
	top := v.TopRect(p)
	for _, s := range shapes {
		if s.pin == pin {
			continue
		}
		if s.layer == v.CutBelow && bot.Overlaps(s.rect) {
			return false
		}
		if s.layer == v.CutBelow+1 && top.Overlaps(s.rect) {
			return false
		}
	}
	return true
}
