package drc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// refQuery is the visit-stamp query scan re-implemented with a seen set: the
// window's cells x-major, each cell's dense run before its overflow list,
// and every live ID that touches the window reported at the first cell that
// lists it. The engine's stamp-free scan must return exactly this: the same
// IDs in the same order.
func refQuery(e *Engine, idx *binIndex, r geom.Rect) []int {
	out := []int{}
	if idx == nil {
		return out
	}
	seen := make(map[int32]bool)
	scan := func(cands []int32) {
		for _, id := range cands {
			if !e.objs[id].alive() || seen[id] {
				continue
			}
			seen[id] = true
			if e.rect(int(id)).Touches(r) {
				out = append(out, int(id))
			}
		}
	}
	x0, y0, x1, y1 := idx.keyRange(r)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			scan(denseCell(idx, x, y))
			if s, ok := idx.over[[2]int32{x, y}]; ok {
				scan(idx.cells[s])
			}
		}
	}
	return out
}

// denseCell returns the dense run of cell (x, y), or nil outside the grid.
func denseCell(idx *binIndex, x, y int32) []int32 {
	cx, cy := int(x)-int(idx.gx0), int(y)-int(idx.gy0)
	if idx.nx == 0 || cx < 0 || cx >= int(idx.nx) || cy < 0 || cy >= int(idx.ny) {
		return nil
	}
	run := idx.runs[cy*int(idx.nx)+cx]
	return idx.ids[run.off : run.off+run.n]
}

// bruteQuery is the set a query must find, from the records alone: every
// live shape of the layer that touches r, ascending.
func bruteQuery(e *Engine, lay int16, r geom.Rect) []int {
	out := []int{}
	for id := range e.objs {
		if o := &e.objs[id]; o.alive() && o.lay == lay && e.rect(id).Touches(r) {
			out = append(out, id)
		}
	}
	return out
}

// checkNoDupCells fails when any cell of any index lists an ID twice,
// counting a cell's dense run and overflow list as one list. The stamp-free
// query dedup relies on this.
func checkNoDupCells(t *testing.T, e *Engine) {
	t.Helper()
	check := func(where string, ids []int32) {
		seen := make(map[int32]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s lists id %d twice: %v", where, id, ids)
			}
			seen[id] = true
		}
	}
	for i, idx := range e.all {
		for cy := int32(0); cy < idx.ny; cy++ {
			for cx := int32(0); cx < idx.nx; cx++ {
				x, y := idx.gx0+cx, idx.gy0+cy
				ids := slices.Clone(denseCell(idx, x, y))
				if s, ok := idx.over[[2]int32{x, y}]; ok {
					ids = append(ids, idx.cells[s]...)
				}
				check(fmt.Sprintf("index %d cell (%d,%d)", i, x, y), ids)
			}
		}
		for k, s := range idx.over {
			check(fmt.Sprintf("index %d overflow cell %v", i, k), idx.cells[s])
		}
	}
}

// farX shifts a shape or window beyond int32 range (saturated windows stay a
// few bins wide: a query walks every cell its window spans).
const farX = int64(3_000_000_000)

// diffShape draws one seeded shape: multi-bin, negative, zero-width, beyond
// int32 or straddling its limit (on metal 2 only, whose spread extent then
// compacts map-only).
func diffShape(rng *rand.Rand, bin int64) Obj {
	x, y := int64(rng.Intn(40*int(bin)))-20*bin, int64(rng.Intn(40*int(bin)))-20*bin
	w, h := int64(rng.Intn(int(bin)/2)), int64(rng.Intn(int(bin)/4))
	switch rng.Intn(6) {
	case 0: // spans several bins
		w = int64(rng.Intn(5 * int(bin)))
	case 1: // zero width or height
		if rng.Intn(2) == 0 {
			w = 0
		} else {
			h = 0
		}
	}
	net := rng.Intn(5) - 1
	switch rng.Intn(5) {
	case 0:
		return Obj{Kind: KindViaCut, CutBelow: 1, Rect: geom.R(x, y, x+65, y+65), Net: net}
	case 1:
		switch rng.Intn(4) {
		case 0: // beyond int32, on either side
			x += farX
			if rng.Intn(2) == 0 {
				x -= 2 * farX
			}
		case 1: // straddling the int32 limit
			x += math.MaxInt32 - 20*bin
		}
		return Obj{Kind: KindWire, MetalLayer: 2, Rect: geom.R(x, y, x+w, y+h), Net: net}
	}
	return Obj{Kind: KindPin, MetalLayer: 1, Rect: geom.R(x, y, x+w, y+h), Net: net}
}

// diffWindow draws a seeded query window: small, multi-bin, zero-area,
// beyond int32 or straddling its limit.
func diffWindow(rng *rand.Rand, bin int64) geom.Rect {
	x, y := int64(rng.Intn(44*int(bin)))-22*bin, int64(rng.Intn(44*int(bin)))-22*bin
	w, h := int64(rng.Intn(3*int(bin))), int64(rng.Intn(3*int(bin)))
	switch rng.Intn(5) {
	case 0:
		w, h = 0, 0
	case 1: // beyond int32
		if rng.Intn(2) == 0 {
			x += farX
		} else {
			x -= farX
		}
	case 2: // straddling the int32 limit
		x += math.MaxInt32 - 20*bin
	}
	return geom.R(x, y, x+w, y+h)
}

// TestQueryDifferential churns seeded shapes through Add, Remove and Compact
// on two engines — one indexing every Add at once, one building in bulk
// phases (Grow … Compact) — and checks every QueryMetalCtx, QueryCutCtx and
// QueryMetal answer against the seen-set scan (same IDs, same order) and the
// brute-force set, on dense, overflow and map-only layers. After each
// Compact the two engines must answer identically.
func TestQueryDifferential(t *testing.T) {
	tc := tech.N45()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now, bulk := NewEngine(tc), NewEngine(tc)
		bin := now.metal[1].size
		qcNow, qcBulk := now.NewQueryCtx(), bulk.NewQueryCtx()
		sawMapOnly, sawDenseOverflow := false, false

		// ask checks every query form of one engine against the references
		// and returns its answers.
		ask := func(e *Engine, qc *QueryCtx, wins []geom.Rect, round int) []string {
			t.Helper()
			checkNoDupCells(t, e)
			var answers []string
			for _, w := range wins {
				for _, q := range []struct {
					name string
					lay  int16
					idx  *binIndex
					got  []int
				}{
					{"QueryMetalCtx(1)", 1, e.metal[1], slices.Clone(e.QueryMetalCtx(1, w, qc))},
					{"QueryMetalCtx(2)", 2, e.metal[2], slices.Clone(e.QueryMetalCtx(2, w, qc))},
					{"QueryCutCtx(1)", -1, e.cut[1], slices.Clone(e.QueryCutCtx(1, w, qc))},
					{"QueryMetal(1)", 1, e.metal[1], e.QueryMetal(1, w)},
					{"QueryMetal(2)", 2, e.metal[2], e.QueryMetal(2, w)},
				} {
					got := q.got
					if want := refQuery(e, q.idx, w); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d: %s %v = %v, seen-set scan %v", seed, round, q.name, w, got, want)
					}
					sorted := slices.Clone(got)
					slices.Sort(sorted)
					if want := bruteQuery(e, q.lay, w); !slices.Equal(sorted, want) {
						t.Fatalf("seed %d round %d: %s %v finds %v, brute force %v", seed, round, q.name, w, sorted, want)
					}
					answers = append(answers, fmt.Sprint(got))
				}
			}
			return answers
		}

		var ids []int
		for round := 0; round < 8; round++ {
			// One batch of shapes: added one by one to now, and through a
			// bulk build to bulk (with removals inside the phase).
			n := 40 + rng.Intn(80)
			bulk.Grow(n)
			for i := 0; i < n; i++ {
				o := diffShape(rng, bin)
				id := now.Add(o)
				if bid := bulk.Add(o); bid != id {
					t.Fatalf("seed %d: bulk Add gave id %d, immediate %d", seed, bid, id)
				}
				ids = append(ids, id)
				if rng.Intn(8) == 0 {
					victim := ids[rng.Intn(len(ids))]
					now.Remove(victim)
					bulk.Remove(victim)
				}
			}
			bulk.Compact()
			wins := make([]geom.Rect, 30)
			for i := range wins {
				wins[i] = diffWindow(rng, bin)
			}
			// The immediate engine is mid-churn: overflow inserts, lazy
			// removals, amortized compactions.
			ask(now, qcNow, wins, round)
			if round%2 == 1 {
				now.Compact()
				a, b := ask(now, qcNow, wins, round), ask(bulk, qcBulk, wins, round)
				if !slices.Equal(a, b) {
					t.Fatalf("seed %d round %d: immediate and bulk engines answer differently after Compact", seed, round)
				}
			} else {
				ask(bulk, qcBulk, wins, round)
			}
			// Churn outside a bulk build: both engines index at once.
			for i := 0; i < 10; i++ {
				o := diffShape(rng, bin)
				now.Add(o)
				ids = append(ids, bulk.Add(o))
				victim := ids[rng.Intn(len(ids))]
				now.Remove(victim)
				bulk.Remove(victim)
			}
			ask(now, qcNow, wins, round)
			ask(bulk, qcBulk, wins, round)
			for _, e := range []*Engine{now, bulk} {
				sawMapOnly = sawMapOnly || e.metal[2].mapOnly
				sawDenseOverflow = sawDenseOverflow || (e.metal[1].nx > 0 && len(e.metal[1].over) > 0)
			}
		}
		if !sawMapOnly || !sawDenseOverflow {
			t.Fatalf("seed %d: layer modes not covered (map-only %v, dense with overflow %v)", seed, sawMapOnly, sawDenseOverflow)
		}
	}
}
