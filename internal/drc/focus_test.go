package drc

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// slotLay is the record layer of an Engine.all slot: +k for metal k, -k for
// cut k.
func slotLay(e *Engine, slot int) int16 {
	if n := len(e.metal) - 1; slot >= n {
		return -int16(slot - n + 1)
	}
	return int16(slot + 1)
}

// bruteForeign is ForeignNearVia from the records alone: does any live
// object on a signature window's layer touch that window with an ID outside
// [first, first+n)?
func bruteForeign(e *Engine, v *tech.ViaDef, p geom.Point, first, n int) bool {
	ws, nw := e.viaWindows(v, p)
	for _, w := range ws[:nw] {
		for id := range e.objs {
			if o := &e.objs[id]; o.alive() && o.lay == slotLay(e, w.slot) &&
				e.rect(id).Touches(w.win) && (id < first || id >= first+n) {
				return true
			}
		}
	}
	return false
}

// sigOf builds via v's signature at p through qc and copies it out.
func sigOf(e *Engine, v *tech.ViaDef, p geom.Point, net int, rects []geom.Rect, qc *QueryCtx) []byte {
	return bytes.Clone(e.viaSignature(v, p, net, rects, qc))
}

// allFocused reports whether every signature window of v at p reads qc's
// focus.
func allFocused(e *Engine, v *tech.ViaDef, p geom.Point, qc *QueryCtx) bool {
	ws, n := e.viaWindows(v, p)
	for _, w := range ws[:n] {
		if _, ok := qc.focused(e, w.slot, w.win); !ok {
			return false
		}
	}
	return true
}

// TestFocusDifferential checks the focus against the index it shortcuts, on
// seeded engines (the TestQueryDifferential shapes: multi-bin, saturated,
// removed, and overflow-map and map-only layers) built with single Adds and
// with Grow … Compact. For random vias and focus windows:
//
//   - a signature whose windows lie inside the focus reads only the focus
//     and equals the index-built signature byte for byte;
//   - one whose focus covers only part of its windows falls back to the
//     index for the rest, with the same bytes;
//   - ForeignNearVia agrees with a brute-force scan, focused or not;
//   - a mutation retires the focus: the next signature sees the new shape.
func TestFocusDifferential(t *testing.T) {
	tc := tech.N45()
	vias := append(tc.ViasAbove(1), tc.ViasAbove(2)...)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now, bulk := NewEngine(tc), NewEngine(tc)
		bin := now.metal[1].size
		n := 300
		bulk.Grow(n)
		var ids []int
		for i := 0; i < n; i++ {
			o := diffShape(rng, bin)
			ids = append(ids, now.Add(o))
			bulk.Add(o)
			if rng.Intn(6) == 0 {
				victim := ids[rng.Intn(len(ids))]
				now.Remove(victim)
				bulk.Remove(victim)
			}
		}
		bulk.Compact()
		for i := 0; i < 20; i++ { // overflow inserts after the bulk build
			o := diffShape(rng, bin)
			now.Add(o)
			bulk.Add(o)
		}
		sawPartial, sawForeign, sawOwn := false, false, false
		for _, e := range []*Engine{now, bulk} {
			qc, plain := e.NewQueryCtx(), e.NewQueryCtx()
			for trial := 0; trial < 300; trial++ {
				v := vias[rng.Intn(len(vias))]
				w := diffWindow(rng, bin)
				p := geom.Pt(w.XL, w.YL)
				net := rng.Intn(5) - 1
				rects := []geom.Rect{v.BotRect(p).Bloat(int64(rng.Intn(200)))}
				want := sigOf(e, v, p, net, rects, plain)

				// Focus on v at p, widened by up to two other drops nearby.
				e.FocusVia(v, p, qc)
				for k := rng.Intn(3); k > 0; k-- {
					q := geom.Pt(p.X+int64(rng.Intn(int(bin)))-bin/2, p.Y+int64(rng.Intn(int(bin)))-bin/2)
					e.FocusVia(vias[rng.Intn(len(vias))], q, qc)
				}
				e.Focus(qc)
				if !allFocused(e, v, p, qc) {
					t.Fatalf("seed %d: the focus on %s at %v does not cover its own windows", seed, v.Name, p)
				}
				if got := sigOf(e, v, p, net, rects, qc); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: focused signature of %s at %v = %x, index-built %x", seed, v.Name, p, got, want)
				}
				first, cnt := rng.Intn(len(e.objs)+1), rng.Intn(40)
				if rng.Intn(4) == 0 { // a span holding the via's whole neighbourhood
					first, cnt = 0, len(e.objs)
				}
				brute := bruteForeign(e, v, p, first, cnt)
				if got := e.ForeignNearVia(v, p, first, cnt, qc); got != brute {
					t.Fatalf("seed %d: focused ForeignNearVia(%s at %v, [%d,+%d)) = %v, brute force %v", seed, v.Name, p, first, cnt, got, brute)
				}
				if got := e.ForeignNearVia(v, p, first, cnt, plain); got != brute {
					t.Fatalf("seed %d: ForeignNearVia(%s at %v, [%d,+%d)) = %v, brute force %v", seed, v.Name, p, first, cnt, got, brute)
				}
				sawForeign, sawOwn = sawForeign || brute, sawOwn || !brute

				// A focus on a neighbouring drop covers v's windows at p only
				// in part: those windows query the index.
				q := geom.Pt(p.X+int64(rng.Intn(int(bin)))-bin/2, p.Y)
				e.FocusVia(v, q, qc)
				e.Focus(qc)
				if !allFocused(e, v, p, qc) {
					sawPartial = true
				}
				if got := sigOf(e, v, p, net, rects, qc); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: partly focused signature of %s at %v (focus at %v) = %x, index-built %x", seed, v.Name, p, q, got, want)
				}
				if got := e.ForeignNearVia(v, p, first, cnt, qc); got != brute {
					t.Fatalf("seed %d: partly focused ForeignNearVia(%s at %v) = %v, brute force %v", seed, v.Name, p, got, brute)
				}
			}
			// A mutation retires the focus: a shape added over the via's
			// bottom enclosure joins its next signature.
			v, p := vias[0], geom.Pt(0, 0)
			e.FocusVia(v, p, qc)
			e.Focus(qc)
			e.AddMetal(v.CutBelow, v.BotRect(p), 7, KindWire, "")
			if got, want := sigOf(e, v, p, 1, nil, qc), sigOf(e, v, p, 1, nil, plain); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: signature after Add through a retired focus = %x, index-built %x", seed, got, want)
			}
		}
		if !sawPartial || !sawForeign || !sawOwn {
			t.Fatalf("seed %d: cases not covered (partial focus %v, foreign %v, own only %v)", seed, sawPartial, sawForeign, sawOwn)
		}
	}
}

// TestFocusedVerdictAllocFree: a warm via verdict answered through a focus —
// FocusVia, Focus, then the cached lookup — allocates nothing.
func TestFocusedVerdictAllocFree(t *testing.T) {
	e, v, bar, _, qc := viaCacheFixture(t)
	e.AddMetal(1, geom.R(0, 530, 1000, 600), 2, KindPin, "blocker")
	p := geom.Pt(500, 435)
	rects := []geom.Rect{bar}
	verdict := func() int {
		e.FocusVia(v, p, qc)
		e.Focus(qc)
		return e.CheckViaVerdictCtx(v, p, 1, rects, qc)
	}
	want := verdict() // fill
	if !allFocused(e, v, p, qc) {
		t.Fatal("the verdict's windows are not focused")
	}
	hits := e.Counters.CacheHits.Load()
	if n := testing.AllocsPerRun(100, func() {
		if verdict() != want {
			t.Fatal("focused verdict changed")
		}
	}); n != 0 {
		t.Fatalf("warm focused verdict allocates %v times per call, want 0", n)
	}
	if e.Counters.CacheHits.Load() == hits {
		t.Fatal("the measured calls were not cache hits")
	}
}
