package drc

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Data-oriented storage for the query core (see DESIGN.md §16).
//
// Each shape's record (Engine.objs) keeps its rectangle as int32
// coordinates, so the Touches test over a bin's candidates is four compares
// on the 24-byte record the alive flag also lives in. The int32 rectangle is
// a saturating-clamped projection of the exact int64 one:
//
//   - clamping is monotone, so a true int64 touch always survives as an int32
//     touch (no false negatives);
//   - a shape whose coordinates fit int32 — every real design; DEF caps
//     coordinates at 1e15 DBU but practical designs stay far below 2^31 —
//     compares exactly, and its record is its exact rectangle;
//   - a saturated shape (or a saturated query window) can produce a false
//     positive, so those candidates get one exact int64 confirm against the
//     exact rectangle, which a saturated record keeps in Engine.sats. The
//     objSat flag marks them; the branch is perfectly predicted (never
//     taken) on unsaturated designs.

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

// clampRect saturates a rectangle into the records' int32 domain. sat reports
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
// slab (rebuilt by compact); inserts since the last compact land in the
// overflow lists, removals are lazy (queries filter on the records' alive
// flag, compact reclaims). No cell list ever holds an ID twice: the query's
// dedup relies on it. Compaction only ever runs under the engine mutation
// contract — from Add/Remove past an amortization threshold, or from an
// explicit Engine.Compact at a freeze point — never from the (concurrent)
// query side.
type binIndex struct {
	size int64

	// Dense base grid. runs is row-major over [gx0,gx0+nx) x [gy0,gy0+ny) in
	// bin coordinates; nx is zero until the first compact and in mapOnly
	// mode. runs and ids keep their capacity across compactions.
	gx0, gy0 int32
	nx, ny   int32
	runs     []binRun
	ids      []int32

	// over maps a cell to its slot in cells, the id list inserted there since
	// the last compact (in mapOnly mode, the whole index: degenerate extents
	// can make the dense cell count exceed any reasonable multiple of the
	// pair count). Slots are handed out in insertion order and keep their
	// capacity across compactions and Reset, so refilling an index with
	// like-sized shapes appends without allocating. The map is made on the
	// first insert.
	over    map[[2]int32]int32
	cells   [][]int32
	mapOnly bool

	// members lists every inserted id (ascending; may contain dead ids until
	// compact filters them). pending counts the last of them, which Compact
	// took from a bulk build and no cell lists yet.
	members []int32
	pending int

	// Amortization accounting: compact() resets these; Add/Remove trigger a
	// rebuild once the churn since the last compact rivals the base size, so
	// total rebuild work stays linear in the insert count.
	basePairs int
	overPairs int
	dead      int
}

func newBinIndex(size int64) *binIndex {
	return &binIndex{size: size}
}

func (b *binIndex) keyRange(r geom.Rect) (x0, y0, x1, y1 int32) {
	return int32(floorDiv(r.XL, b.size)), int32(floorDiv(r.YL, b.size)),
		int32(floorDiv(r.XH, b.size)), int32(floorDiv(r.YH, b.size))
}

// insert registers id covering r. New ids always land in the overflow lists;
// the dense grid is append-only between compactions.
func (b *binIndex) insert(id int32, r geom.Rect) {
	b.members = append(b.members, id)
	x0, y0, x1, y1 := b.keyRange(r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			b.push([2]int32{x, y}, id)
			b.overPairs++
		}
	}
}

// push appends id to cell k's overflow list, taking the next slot for a cell
// the map does not hold yet.
func (b *binIndex) push(k [2]int32, id int32) {
	if b.over == nil {
		b.over = make(map[[2]int32]int32)
	}
	s, ok := b.over[k]
	if !ok {
		s = int32(len(b.cells))
		if len(b.cells) < cap(b.cells) {
			b.cells = b.cells[:s+1]
			b.cells[s] = b.cells[s][:0]
		} else {
			b.cells = append(b.cells, nil)
		}
		b.over[k] = s
	}
	b.cells[s] = append(b.cells[s], id)
}

// remove unregisters id covering r. Overflow entries are scrubbed eagerly
// (cheap map lookups); dense entries are left to the query's alive filter and
// reclaimed by the next compact.
func (b *binIndex) remove(id int32, r geom.Rect) {
	b.dead++
	if b.overPairs == 0 && !b.mapOnly {
		return
	}
	x0, y0, x1, y1 := b.keyRange(r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			s, ok := b.over[[2]int32{x, y}]
			if !ok {
				continue
			}
			l := b.cells[s]
			for i, v := range l {
				if v == id {
					l[i] = l[len(l)-1]
					b.cells[s] = l[:len(l)-1]
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
func (b *binIndex) dirty() bool { return b.overPairs > 0 || b.dead > 0 || b.pending > 0 }

// needsCompact applies the amortization thresholds: rebuild when the overflow
// rivals the dense base, or when lazy removals dominate the member list.
func (b *binIndex) needsCompact() bool {
	if b.overPairs > 64 && b.overPairs > b.basePairs {
		return true
	}
	return b.dead > 64 && 2*b.dead > len(b.members)
}

// reset empties the index and keeps the capacity of its members, runs, ids,
// overflow map and slots.
func (b *binIndex) reset() {
	b.members = b.members[:0]
	b.pending = 0
	b.gx0, b.gy0, b.nx, b.ny = 0, 0, 0, 0
	b.runs, b.ids = b.runs[:0], b.ids[:0]
	clear(b.over)
	b.cells = b.cells[:0]
	b.mapOnly = false
	b.basePairs, b.overPairs, b.dead = 0, 0, 0
}

// compact rebuilds the dense grid from the live members: filters dead ids,
// recomputes the grid extent, and lays the per-cell candidate runs out in one
// shared slab with ids ascending within each cell. Must run under the engine
// mutation contract (no concurrent queries).
func (e *Engine) compactIndex(b *binIndex) {
	live := b.members[:0]
	for _, id := range b.members {
		if e.objs[id].alive() {
			live = append(live, id)
		}
	}
	b.reset()
	b.members = live
	if len(live) == 0 {
		return
	}

	var gx0, gy0, gx1, gy1 int32
	pairs := 0
	for i, id := range live {
		x0, y0, x1, y1 := b.keyRange(e.rect(int(id)))
		pairs += int(x1-x0+1) * int(y1-y0+1)
		if i == 0 {
			gx0, gy0, gx1, gy1 = x0, y0, x1, y1
			continue
		}
		gx0, gy0 = min(gx0, x0), min(gy0, y0)
		gx1, gy1 = max(gx1, x1), max(gy1, y1)
	}
	cells := (int64(gx1) - int64(gx0) + 1) * (int64(gy1) - int64(gy0) + 1)
	if lim := int64(2 * pairs); cells > 4096 && cells > lim {
		// Sparse or wildly spread extents: a dense grid would waste memory on
		// empty cells. Keep everything in the map.
		b.mapOnly = true
		for _, id := range live {
			x0, y0, x1, y1 := b.keyRange(e.rect(int(id)))
			for x := x0; x <= x1; x++ {
				for y := y0; y <= y1; y++ {
					b.push([2]int32{x, y}, id)
				}
			}
		}
		b.basePairs = pairs
		return
	}

	b.gx0, b.gy0 = gx0, gy0
	b.nx, b.ny = gx1-gx0+1, gy1-gy0+1
	b.runs = slices.Grow(b.runs, int(cells))[:cells]
	clear(b.runs)
	for _, id := range live {
		x0, y0, x1, y1 := b.keyRange(e.rect(int(id)))
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
	b.ids = slices.Grow(b.ids, pairs)[:pairs]
	for _, id := range live { // ascending ids -> ascending within each cell
		x0, y0, x1, y1 := b.keyRange(e.rect(int(id)))
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
// dense grid, and closes a bulk build: the live shapes added since Grow join
// their layers' member lists (one pass counts them per layer, one appends,
// so each list grows once) and each layer's grid is built from its members
// in one compaction. It must run under the engine mutation contract — the
// analyzer calls it at engine freeze points (after bulk construction, after
// Step-3 placement) before fanning queries out to goroutines; queries
// themselves never rebuild. Outside a bulk build a missed Compact costs
// speed, never correctness. An ECO session skips it: a rebuild costs time
// proportional to the whole index, while an edit leaves only a few shapes in
// the overflow map.
func (e *Engine) Compact() {
	if e.bulk {
		e.bulk = false
		recs := e.objs[e.bulkFrom:]
		for i := range recs {
			if o := &recs[i]; o.alive() {
				if idx := e.index(o.lay); idx != nil {
					idx.pending++
				}
			}
		}
		for _, idx := range e.all {
			idx.members = slices.Grow(idx.members, idx.pending)
		}
		for i := range recs {
			if o := &recs[i]; o.alive() {
				if idx := e.index(o.lay); idx != nil {
					idx.members = append(idx.members, int32(e.bulkFrom+i))
				}
			}
		}
	}
	for _, idx := range e.all {
		if idx.dirty() {
			e.compactIndex(idx)
		}
	}
}
