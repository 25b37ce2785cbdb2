package drc

import (
	"math"

	"repro/internal/geom"
)

// Data-oriented storage for the query core (see DESIGN.md §16).
//
// The engine keeps the geometry it scans during region queries in flat
// struct-of-arrays slabs — int32 XL/YL/XH/YH columns plus packed net/kind/
// layer columns — so the Touches test over a bin's candidates is a
// branch-light compare over contiguous memory instead of a pointer-chase
// through 64-byte Obj structs. The authoritative int64 geometry stays in
// Engine.objs; the columns are a saturating-clamped projection of it:
//
//   - clamping is monotone, so a true int64 touch always survives as an int32
//     touch (no false negatives);
//   - a shape whose coordinates fit int32 — every real design; DEF caps
//     coordinates at 1e15 DBU but practical designs stay far below 2^31 —
//     compares exactly;
//   - a saturated shape (or a saturated query window) can produce a false
//     positive, so those candidates get one exact int64 confirm against
//     Engine.objs. The slabSat flag marks them; the branch is perfectly
//     predicted (never taken) on unsaturated designs.

const (
	// slabSat marks a slab row whose clamped coordinates differ from the
	// authoritative int64 rectangle; matches against it re-check exactly.
	slabSat uint8 = 1 << 7
	// slabKindMask extracts the Kind packed in the low bits of the info column.
	slabKindMask uint8 = 0x0f
)

// clampI32 saturates an int64 coordinate into int32 range.
func clampI32(v int64) (int32, bool) {
	if v < math.MinInt32 {
		return math.MinInt32, true
	}
	if v > math.MaxInt32 {
		return math.MaxInt32, true
	}
	return int32(v), false
}

// clampRect saturates a rectangle into the int32 slab domain. sat reports
// whether any coordinate moved (exact int64 confirmation required).
func clampRect(r geom.Rect) (xl, yl, xh, yh int32, sat bool) {
	var s1, s2, s3, s4 bool
	xl, s1 = clampI32(r.XL)
	yl, s2 = clampI32(r.YL)
	xh, s3 = clampI32(r.XH)
	yh, s4 = clampI32(r.YH)
	return xl, yl, xh, yh, s1 || s2 || s3 || s4
}

// binRun is one cell of the dense grid: a run of candidate IDs inside the
// shared ids slab.
type binRun struct {
	off, n int32
}

// binIndex is the uniform-grid spatial index over object IDs. The steady
// state is a dense grid of offset/length runs into one shared, bin-sorted ID
// slab (rebuilt by compact); inserts since the last compact land in the over
// map, removals are lazy (queries filter on Engine.alive, compact reclaims).
// Compaction only ever runs under the engine mutation contract — from
// Add/Remove past an amortization threshold, or from an explicit
// Engine.Compact at a freeze point — never from the (concurrent) query side.
type binIndex struct {
	size int64

	// Dense base grid. runs is row-major over [gx0,gx0+nx) x [gy0,gy0+ny) in
	// bin coordinates; nil until the first compact or when mapOnly.
	gx0, gy0 int32
	nx, ny   int32
	runs     []binRun
	ids      []int32

	// over holds the id→cells pairs inserted since the last compact (and, in
	// mapOnly mode, the whole index: degenerate extents can make the dense
	// cell count exceed any reasonable multiple of the pair count).
	over    map[[2]int32][]int32
	mapOnly bool

	// members lists every inserted id (ascending; may contain dead ids until
	// compact filters them against Engine.alive).
	members []int32

	// Amortization accounting: compact() resets these; Add/Remove trigger a
	// rebuild once the churn since the last compact rivals the base size, so
	// total rebuild work stays linear in the insert count.
	basePairs int
	overPairs int
	dead      int
}

func newBinIndex(size int64) *binIndex {
	return &binIndex{size: size, over: make(map[[2]int32][]int32)}
}

func (b *binIndex) keyRange(r geom.Rect) (x0, y0, x1, y1 int32) {
	return int32(floorDiv(r.XL, b.size)), int32(floorDiv(r.YL, b.size)),
		int32(floorDiv(r.XH, b.size)), int32(floorDiv(r.YH, b.size))
}

// insert registers id covering r. New ids always land in the over map; the
// dense grid is append-only between compactions.
func (b *binIndex) insert(id int32, r geom.Rect) {
	b.members = append(b.members, id)
	x0, y0, x1, y1 := b.keyRange(r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			k := [2]int32{x, y}
			b.over[k] = append(b.over[k], id)
			b.overPairs++
		}
	}
}

// remove unregisters id covering r. Overflow entries are scrubbed eagerly
// (cheap map lookups); dense entries are left to the alive[] query filter and
// reclaimed by the next compact.
func (b *binIndex) remove(id int32, r geom.Rect) {
	b.dead++
	if b.overPairs == 0 && !b.mapOnly {
		return
	}
	x0, y0, x1, y1 := b.keyRange(r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			k := [2]int32{x, y}
			s := b.over[k]
			for i, v := range s {
				if v == id {
					s[i] = s[len(s)-1]
					b.over[k] = s[:len(s)-1]
					if b.overPairs > 0 {
						b.overPairs--
					}
					break
				}
			}
		}
	}
}

// dirty reports whether the index has churn a compact would fold in.
func (b *binIndex) dirty() bool { return b.overPairs > 0 || b.dead > 0 }

// needsCompact applies the amortization thresholds: rebuild when the overflow
// rivals the dense base, or when lazy removals dominate the member list.
func (b *binIndex) needsCompact() bool {
	if b.overPairs > 64 && b.overPairs > b.basePairs {
		return true
	}
	return b.dead > 64 && 2*b.dead > len(b.members)
}

// compact rebuilds the dense grid from the live members: filters dead ids,
// recomputes the grid extent, and lays the per-cell candidate runs out in one
// shared slab with ids ascending within each cell. Must run under the engine
// mutation contract (no concurrent queries).
func (e *Engine) compactIndex(b *binIndex) {
	live := b.members[:0]
	for _, id := range b.members {
		if e.alive[id] {
			live = append(live, id)
		}
	}
	b.members = live
	b.dead = 0
	b.overPairs = 0
	clear(b.over)
	b.runs, b.ids = nil, nil
	b.nx, b.ny = 0, 0
	b.mapOnly = false
	b.basePairs = 0
	if len(live) == 0 {
		return
	}

	var gx0, gy0, gx1, gy1 int32
	pairs := 0
	for i, id := range live {
		x0, y0, x1, y1 := b.keyRange(e.objs[id].Rect)
		pairs += int(x1-x0+1) * int(y1-y0+1)
		if i == 0 {
			gx0, gy0, gx1, gy1 = x0, y0, x1, y1
			continue
		}
		if x0 < gx0 {
			gx0 = x0
		}
		if y0 < gy0 {
			gy0 = y0
		}
		if x1 > gx1 {
			gx1 = x1
		}
		if y1 > gy1 {
			gy1 = y1
		}
	}
	cells := (int64(gx1) - int64(gx0) + 1) * (int64(gy1) - int64(gy0) + 1)
	if lim := int64(2 * pairs); cells > 4096 && cells > lim {
		// Sparse or wildly spread extents: a dense grid would waste memory on
		// empty cells. Keep everything in the map.
		b.mapOnly = true
		for _, id := range live {
			x0, y0, x1, y1 := b.keyRange(e.objs[id].Rect)
			for x := x0; x <= x1; x++ {
				for y := y0; y <= y1; y++ {
					k := [2]int32{x, y}
					b.over[k] = append(b.over[k], id)
				}
			}
		}
		b.basePairs = pairs
		return
	}

	b.gx0, b.gy0 = gx0, gy0
	b.nx, b.ny = gx1-gx0+1, gy1-gy0+1
	b.runs = make([]binRun, cells)
	for _, id := range live {
		x0, y0, x1, y1 := b.keyRange(e.objs[id].Rect)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				b.runs[int(y-gy0)*int(b.nx)+int(x-gx0)].n++
			}
		}
	}
	off := int32(0)
	for i := range b.runs {
		b.runs[i].off = off
		off += b.runs[i].n
		b.runs[i].n = 0
	}
	b.ids = make([]int32, pairs)
	for _, id := range live { // ascending ids -> ascending within each cell
		x0, y0, x1, y1 := b.keyRange(e.objs[id].Rect)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				run := &b.runs[int(y-gy0)*int(b.nx)+int(x-gx0)]
				b.ids[run.off+run.n] = id
				run.n++
			}
		}
	}
	b.basePairs = pairs
}

// Compact folds every index's overflow inserts and lazy removals into its
// dense grid. It must run under the engine mutation contract — the analyzer
// calls it at engine freeze points (after bulk construction, after Step-3
// placement) before fanning queries out to goroutines; queries themselves
// never rebuild, so a missed Compact costs speed, never correctness. An ECO
// session skips it: a rebuild costs time proportional to the whole index,
// while an edit leaves only a few shapes in the overflow map.
func (e *Engine) Compact() {
	for _, idx := range e.metal {
		if idx != nil && idx.dirty() {
			e.compactIndex(idx)
		}
	}
	for _, idx := range e.cut {
		if idx != nil && idx.dirty() {
			e.compactIndex(idx)
		}
	}
}
