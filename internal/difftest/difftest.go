// Package difftest cross-validates the production DRC engine and the pin
// access pipeline against independent references:
//
//   - differential replay: seeded randomized via-drop and spacing queries run
//     through both internal/drc (spatial index, query contexts) and
//     internal/oracle (naive pairwise reference); any verdict divergence fails
//     with the testcase, seed and the exact query for a byte-for-byte repro;
//   - metamorphic invariants: whole-design transformations with a known effect
//     on the answer — translation, mirroring (orientation equivalence),
//     Workers=1 vs Workers=N, and an ECO phase move vs a fresh Run — asserted
//     end-to-end through pao.Analyzer;
//   - golden regression: per-testcase result summaries pinned under
//     testdata/golden (go test ./internal/difftest -update regenerates).
//
// The package itself holds only the engine-mirroring and design-transformation
// helpers; the three layers live in the test files.
package difftest

import (
	"sort"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/tech"
)

// Mirror builds a reference checker holding exactly the engine's live shapes,
// so both implementations answer queries over the same design state.
func Mirror(eng *drc.Engine) *oracle.Checker {
	c := oracle.New(eng.Tech)
	eng.ForEachObj(func(o drc.Obj) {
		if o.CutBelow > 0 {
			c.AddCut(o.CutBelow, o.Rect, o.Net)
		} else {
			c.AddMetal(o.MetalLayer, o.Rect, o.Net)
		}
	})
	return c
}

// DRCKeys returns the sorted, deduplicated key set of an engine violation
// list — the canonical form compared against oracle.Keys.
func DRCKeys(vs []drc.Violation) []string {
	seen := make(map[string]bool, len(vs))
	var out []string
	for _, v := range vs {
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// SameKeys reports whether two canonical key sets are equal.
func SameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Translate shifts every placed coordinate of the design — die, track starts,
// rows, instances and IO pins — by (dx, dy). Pin access analysis is invariant
// under this map: every access point must shift by exactly (dx, dy).
func Translate(d *db.Design, dx, dy int64) {
	d.Die = geom.R(d.Die.XL+dx, d.Die.YL+dy, d.Die.XH+dx, d.Die.YH+dy)
	for i := range d.Tracks {
		tp := &d.Tracks[i]
		// Vertical-wire patterns are x coordinates, horizontal-wire patterns
		// are y coordinates.
		if isVerticalPattern(*tp) {
			tp.Start += dx
		} else {
			tp.Start += dy
		}
	}
	for _, r := range d.Rows {
		r.Origin = geom.Pt(r.Origin.X+dx, r.Origin.Y+dy)
	}
	for _, inst := range d.Instances {
		inst.Pos = geom.Pt(inst.Pos.X+dx, inst.Pos.Y+dy)
	}
	for _, io := range d.IOPins {
		r := io.Shape.Rect
		io.Shape.Rect = geom.R(r.XL+dx, r.YL+dy, r.XH+dx, r.YH+dy)
	}
}

// mirrorXOrient maps each orientation to its image under a mirror about a
// vertical axis (x -> C-x). Derived from geom.Transform.ApplyPt: the rotations
// swap with their y-axis-mirrored counterparts.
var mirrorXOrient = map[geom.Orient]geom.Orient{
	geom.OrientN: geom.OrientFN, geom.OrientFN: geom.OrientN,
	geom.OrientS: geom.OrientFS, geom.OrientFS: geom.OrientS,
	geom.OrientW: geom.OrientFW, geom.OrientFW: geom.OrientW,
	geom.OrientE: geom.OrientFE, geom.OrientFE: geom.OrientE,
}

// MirrorX reflects the whole design about the vertical axis x = C with
// C = Die.XL + Die.XH, so the die maps onto itself. Instances swap to their
// mirrored orientations (N<->FN, S<->FS, W<->FW, E<->FE); vertical track
// patterns and IO pins reflect. Analysis results must mirror exactly: an
// access point at (x, y) corresponds to one at (C-x, y) on the same layer.
// Returns C.
func MirrorX(d *db.Design) int64 {
	c := d.Die.XL + d.Die.XH
	for _, inst := range d.Instances {
		w := inst.Transform().PlacedSize().X
		inst.Pos = geom.Pt(c-inst.Pos.X-w, inst.Pos.Y)
		inst.Orient = mirrorXOrient[inst.Orient]
	}
	for _, r := range d.Rows {
		r.Origin = geom.Pt(c-r.Origin.X-int64(r.NumSites)*r.SiteW, r.Origin.Y)
	}
	for i := range d.Tracks {
		tp := &d.Tracks[i]
		if isVerticalPattern(*tp) {
			tp.Start = c - tp.Last()
		}
	}
	for _, io := range d.IOPins {
		r := io.Shape.Rect
		io.Shape.Rect = geom.R(c-r.XH, r.YL, c-r.XL, r.YH)
	}
	return c
}

// isVerticalPattern reports whether the pattern's coordinates are x values
// (tracks carrying vertical wires).
func isVerticalPattern(tp db.TrackPattern) bool {
	return tp.WireDir == tech.Vertical
}
