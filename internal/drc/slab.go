package drc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/tech"
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

// Bin keys are computed in int64 and saturated into [-maxBinKey, maxBinKey],
// for inserts and queries alike. The key map stays monotone, so a shape and a
// window that touch still share a bin, while a coordinate far beyond int32
// (DEF admits 1e15 DBU) lands in an edge bin instead of wrapping, and every
// walk over keys, or difference of two keys, stays inside int32.
const maxBinKey = 1 << 29

// A shape is filed in every bin it touches, so one shape may cost the index
// at most shapeBudget bytes. Filed by a lone Add, a bin costs an overflow
// map key, a cell list and its one-ID array: 73 bytes measured over 65,536
// bins, taken as overflowCellBytes (a bulk-built dense grid costs 12). So one
// shape may span at most maxCellSpan = 2^22 bins, a 2,048 x 2,048-bin
// square: about 3.1 mm on a side at the 14 nm bin (1,536 DBU), 6.9 mm at the
// 45 nm one. Add refuses a larger shape before recording anything; readers
// of design input refuse it first (CheckExtent).
const (
	shapeBudget       = 320 << 20
	overflowCellBytes = 80
	maxCellSpan       = shapeBudget / overflowCellBytes
)

// CheckExtent returns an error when a shape the size of r, placed anywhere
// and in any orientation, could be filed in more than maxCellSpan bins of an
// engine for t, so that Add would refuse it. A rect w DBU wide touches at
// most ceil(w/bin)+1 bins along x; likewise along y.
func CheckExtent(t *tech.Technology, r geom.Rect) error {
	bin := binSize(t)
	nx := ceilDiv(r.Width(), bin) + 1
	ny := ceilDiv(r.Height(), bin) + 1
	if nx > maxCellSpan || ny > maxCellSpan || nx*ny > maxCellSpan {
		return fmt.Errorf("shape %v is %d x %d DBU: the DRC index may take up to %d bins of %d DBU for one shape, it could need %d x %d",
			r, r.Width(), r.Height(), maxCellSpan, bin, nx, ny)
	}
	return nil
}

// ceilDiv is ceil(a/b) for a >= 0 and b > 0, without overflow.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// binKey is the saturated bin key of coordinate v.
func binKey(v, size int64) int32 {
	return int32(min(max(floorDiv(v, size), -maxBinKey), maxBinKey))
}

// floorDiv32 is floorDiv for an int32 dividend and a positive divisor.
func floorDiv32(a, b int32) int32 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
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
	size   int64
	size32 int32 // size when it fits int32 (the unsaturated key path), else 0

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
	// ox0..oy1 bound the keys over holds (valid while it holds any): with
	// the dense grid, the populated extent a query's walk is clipped to.
	ox0, oy0, ox1, oy1 int32

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
	b := &binIndex{size: size}
	if size <= math.MaxInt32 {
		b.size32 = int32(size)
	}
	return b
}

// keyRange returns the saturated bin keys a rectangle covers.
func (b *binIndex) keyRange(r geom.Rect) (x0, y0, x1, y1 int32) {
	xl, yl, xh, yh, sat := clampRect(r)
	return b.keys(r, xl, yl, xh, yh, sat)
}

// keys is keyRange for a rectangle whose clampRect the caller already has.
// An unsaturated rectangle divides in int32: its keys are at most
// 2^31/minBinSize in magnitude, so none saturates.
func (b *binIndex) keys(r geom.Rect, xl, yl, xh, yh int32, sat bool) (x0, y0, x1, y1 int32) {
	if s := b.size32; !sat && s != 0 {
		return floorDiv32(xl, s), floorDiv32(yl, s), floorDiv32(xh, s), floorDiv32(yh, s)
	}
	return binKey(r.XL, b.size), binKey(r.YL, b.size), binKey(r.XH, b.size), binKey(r.YH, b.size)
}

// cellSpan is the number of bins a key range covers.
func cellSpan(x0, y0, x1, y1 int32) int64 {
	return (int64(x1) - int64(x0) + 1) * (int64(y1) - int64(y0) + 1)
}

// extent returns the populated key extent: the dense grid and the keys over
// holds (ok is false when the index holds neither). Every cell that lists a
// shape lies inside it.
func (b *binIndex) extent() (x0, y0, x1, y1 int32, ok bool) {
	if b.nx > 0 {
		x0, y0, x1, y1, ok = b.gx0, b.gy0, b.gx0+b.nx-1, b.gy0+b.ny-1, true
	}
	if len(b.over) == 0 {
		return x0, y0, x1, y1, ok
	}
	if !ok {
		return b.ox0, b.oy0, b.ox1, b.oy1, true
	}
	return min(x0, b.ox0), min(y0, b.oy0), max(x1, b.ox1), max(y1, b.oy1), true
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
		if len(b.over) == 0 {
			b.ox0, b.oy0, b.ox1, b.oy1 = k[0], k[1], k[0], k[1]
		} else {
			b.ox0, b.oy0 = min(b.ox0, k[0]), min(b.oy0, k[1])
			b.ox1, b.oy1 = max(b.ox1, k[0]), max(b.oy1, k[1])
		}
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
	cells := cellSpan(gx0, gy0, gx1, gy1)
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
