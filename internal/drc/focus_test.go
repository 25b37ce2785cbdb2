package drc

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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
// object without a skip flag on a signature window's layer touch that window
// with an ID outside both spans [first, first+n) and [first2, first2+n2)?
// held lists, sorted, the objects of the second span that touch a window.
// skip is a view's flags: 0 for a plain context, objVia for a fixed one.
func bruteForeign(e *Engine, v *tech.ViaDef, p geom.Point, first, n, first2, n2 int, skip uint8) (foreign bool, held []int) {
	ws, nw := e.viaWindows(v, p)
	for id := range e.objs {
		o := &e.objs[id]
		if !o.alive() || o.flags&skip != 0 {
			continue
		}
		for _, w := range ws[:nw] {
			if o.lay != slotLay(e, w.slot) || !e.rect(id).Touches(w.win) {
				continue
			}
			switch {
			case id >= first2 && id < first2+n2:
				if !slices.Contains(held, id) {
					held = append(held, id)
				}
			case id < first || id >= first+n:
				foreign = true
			}
		}
	}
	return foreign, held
}

// heldBy runs ForeignNearVia through qc and returns its answer with the
// distinct objects it reported held, sorted.
func heldBy(e *Engine, v *tech.ViaDef, p geom.Point, first, n, first2, n2 int, qc *QueryCtx) (bool, []int) {
	var held []int
	foreign := e.ForeignNearVia(v, p, first, n, first2, n2, qc, func(id int) {
		if !slices.Contains(held, id) {
			held = append(held, id)
		}
	})
	slices.Sort(held)
	return foreign, held
}

// fixedShape is diffShape with its cuts made cut-layer blockages, so that no
// fixed shape is a via object.
func fixedShape(rng *rand.Rand, bin int64) Obj {
	o := diffShape(rng, bin)
	if o.Kind == KindViaCut {
		o.Kind = KindObs
	}
	return o
}

// viaShape is diffShape as a via object: an enclosure on metal, a cut on the
// cut layer.
func viaShape(rng *rand.Rand, bin int64) Obj {
	o := diffShape(rng, bin)
	o.Kind = KindViaEnc
	if o.CutBelow > 0 {
		o.Kind = KindViaCut
	}
	return o
}

// drop is a via dropped at a point.
type drop struct {
	v *tech.ViaDef
	p geom.Point
}

// shapesOf lists what a query found, by rectangle and net: what a twin
// engine's answer must equal (its IDs differ). sorted drops the order.
func shapesOf(e *Engine, ids []int, sorted bool) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprint(e.rect(id), e.objs[id].net)
	}
	if sorted {
		slices.Sort(out)
	}
	return out
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

// TestFocusDifferential checks the focus against the index it shortcuts,
// and a fixed (via-blind) context against a via-free twin, on seeded engines
// (the TestQueryDifferential shapes: multi-bin, saturated, removed, and
// overflow-map and map-only layers) built with single Adds and with Grow …
// Compact. Each engine also holds via objects, enclosures on metal and cuts
// on the cut layer, interleaved with the fixed shapes; some are removed, and
// some are added after the bulk build. Each engine's twin is built the same
// way from the same fixed shapes, with no via object. For random vias and
// focus windows:
//
//   - a signature whose windows lie inside the focus reads only the focus
//     and equals the index-built signature byte for byte;
//   - one whose focus covers only part of its windows falls back to the
//     index for the rest, with the same bytes;
//   - ForeignNearVia agrees with a brute-force scan, focused or not, over
//     one owned span or two, and when it finds nothing foreign it has
//     reported every object of the second span touching a window as held;
//   - through a fixed context the engine answers as a plain context does on
//     its twin: the same QueryMetalCtx and QueryCutCtx shapes (in the same
//     order on the bulk-built pair, whose indexes share a layout; the
//     immediate engine compacts at other points than its twin, since its
//     vias count toward its churn), the same signature bytes focused, partly
//     focused and unfocused, the same CheckViaVerdictCtx and len(CheckViaCtx),
//     and ForeignNearVia equal to a brute-force scan over the non-via
//     records;
//   - a mutation retires the focus: the next signature sees the new shape,
//     and a fixed context's does not see a new via object.
func TestFocusDifferential(t *testing.T) {
	tc := tech.N45()
	vias := append(tc.ViasAbove(1), tc.ViasAbove(2)...)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now, bulk := NewEngine(tc), NewEngine(tc)
		nowTwin, bulkTwin := NewEngine(tc), NewEngine(tc)
		bin := now.metal[1].size
		n := 300
		bulk.Grow(n)
		bulkTwin.Grow(n)
		var ids, viaIDs []int
		twinOf := make(map[int]int) // engine ID -> twin ID, fixed shapes only
		add := func(o Obj) {
			id := now.Add(o)
			bulk.Add(o)
			ids = append(ids, id)
			if o.Kind == KindViaEnc || o.Kind == KindViaCut {
				viaIDs = append(viaIDs, id)
				return
			}
			twinOf[id] = nowTwin.Add(o)
			bulkTwin.Add(o)
		}
		remove := func(victim int) {
			now.Remove(victim)
			bulk.Remove(victim)
			if tw, ok := twinOf[victim]; ok {
				nowTwin.Remove(tw)
				bulkTwin.Remove(tw)
			}
		}
		for i := 0; i < n; i++ {
			add(fixedShape(rng, bin))
			if rng.Intn(3) == 0 {
				add(viaShape(rng, bin))
			}
			if rng.Intn(6) == 0 {
				remove(ids[rng.Intn(len(ids))])
			}
		}
		bulk.Compact()
		bulkTwin.Compact()
		for i := 0; i < 20; i++ { // overflow inserts after the bulk build
			add(fixedShape(rng, bin))
			if rng.Intn(2) == 0 {
				add(viaShape(rng, bin))
			}
		}
		for i := 0; i < 5; i++ { // and removals of vias the build indexed
			remove(viaIDs[rng.Intn(len(viaIDs))])
		}
		sawPartial, sawForeign, sawOwn, sawHeld, sawVia := false, false, false, false, false
		for _, pair := range []struct {
			e, twin *Engine
			ordered bool
		}{{now, nowTwin, false}, {bulk, bulkTwin, true}} {
			e, twin := pair.e, pair.twin
			e.AttachViaCache(NewViaCache())
			twin.AttachViaCache(NewViaCache())
			qc, plain := e.NewQueryCtx(), e.NewQueryCtx()
			fixed, fixedIdx, twinQC := e.NewFixedQueryCtx(), e.NewFixedQueryCtx(), twin.NewQueryCtx()
			for trial := 0; trial < 300; trial++ {
				v := vias[rng.Intn(len(vias))]
				w := diffWindow(rng, bin)
				p := geom.Pt(w.XL, w.YL)
				if rng.Intn(3) == 0 { // on a via object, which the fixed view hides
					r := e.rect(viaIDs[rng.Intn(len(viaIDs))])
					p = geom.Pt(r.XL, r.YL)
				}
				net := rng.Intn(5) - 1
				rects := []geom.Rect{v.BotRect(p).Bloat(int64(rng.Intn(200)))}
				want := sigOf(e, v, p, net, rects, plain)
				wantFixed := sigOf(twin, v, p, net, rects, twinQC)
				sawVia = sawVia || !bytes.Equal(want, wantFixed)

				// The fixed view's queries, signature and verdicts, unfocused.
				for _, q := range []struct {
					name      string
					got, twin []int
				}{
					{"QueryMetalCtx(1)", slices.Clone(e.QueryMetalCtx(1, w, fixedIdx)), slices.Clone(twin.QueryMetalCtx(1, w, twinQC))},
					{"QueryMetalCtx(2)", slices.Clone(e.QueryMetalCtx(2, w, fixedIdx)), slices.Clone(twin.QueryMetalCtx(2, w, twinQC))},
					{"QueryCutCtx(1)", slices.Clone(e.QueryCutCtx(1, w, fixedIdx)), slices.Clone(twin.QueryCutCtx(1, w, twinQC))},
				} {
					if got, tw := shapesOf(e, q.got, !pair.ordered), shapesOf(twin, q.twin, !pair.ordered); !slices.Equal(got, tw) {
						t.Fatalf("seed %d: fixed %s %v = %v, twin %v", seed, q.name, w, got, tw)
					}
				}
				if got := sigOf(e, v, p, net, rects, fixedIdx); !bytes.Equal(got, wantFixed) {
					t.Fatalf("seed %d: fixed signature of %s at %v = %x, twin %x", seed, v.Name, p, got, wantFixed)
				}
				if got, tw := len(e.CheckViaCtx(v, p, net, rects, fixedIdx)), len(twin.CheckViaCtx(v, p, net, rects, twinQC)); got != tw {
					t.Fatalf("seed %d: fixed CheckViaCtx of %s at %v finds %d, twin %d", seed, v.Name, p, got, tw)
				}

				// Focus on v at p, widened by up to two other drops nearby.
				drops := []drop{{v, p}}
				for k := rng.Intn(3); k > 0; k-- {
					q := geom.Pt(p.X+int64(rng.Intn(int(bin)))-bin/2, p.Y+int64(rng.Intn(int(bin)))-bin/2)
					drops = append(drops, drop{vias[rng.Intn(len(vias))], q})
				}
				for _, c := range []*QueryCtx{qc, fixed} {
					for _, d := range drops {
						e.FocusVia(d.v, d.p, c)
					}
					e.Focus(c)
					if !allFocused(e, v, p, c) {
						t.Fatalf("seed %d: the focus on %s at %v does not cover its own windows", seed, v.Name, p)
					}
				}
				if got := sigOf(e, v, p, net, rects, qc); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: focused signature of %s at %v = %x, index-built %x", seed, v.Name, p, got, want)
				}
				if got := sigOf(e, v, p, net, rects, fixed); !bytes.Equal(got, wantFixed) {
					t.Fatalf("seed %d: focused fixed signature of %s at %v = %x, twin %x", seed, v.Name, p, got, wantFixed)
				}
				if got, tw := e.CheckViaVerdictCtx(v, p, net, rects, fixed), twin.CheckViaVerdictCtx(v, p, net, rects, twinQC); got != tw {
					t.Fatalf("seed %d: focused fixed verdict of %s at %v = %d, twin %d", seed, v.Name, p, got, tw)
				}
				first, cnt := rng.Intn(len(e.objs)+1), rng.Intn(40)
				if rng.Intn(4) == 0 { // a span holding the via's whole neighbourhood
					first, cnt = 0, len(e.objs)
				}
				first2, cnt2 := 0, 0
				if rng.Intn(2) == 0 { // a second span, which may overlap the first
					first2, cnt2 = rng.Intn(len(e.objs)+1), rng.Intn(40)
				}
				brute, bruteHeld := bruteForeign(e, v, p, first, cnt, first2, cnt2, 0)
				bruteFixed, bruteFixedHeld := bruteForeign(e, v, p, first, cnt, first2, cnt2, objVia)
				foreignNear := func(name string, qc *QueryCtx, want bool, wantHeld []int) {
					t.Helper()
					if got := e.ForeignNearVia(v, p, first, cnt, first2, cnt2, qc, nil); got != want {
						t.Fatalf("seed %d: %s ForeignNearVia(%s at %v, [%d,+%d), [%d,+%d)) = %v, brute force %v", seed, name, v.Name, p, first, cnt, first2, cnt2, got, want)
					}
					got, held := heldBy(e, v, p, first, cnt, first2, cnt2, qc)
					if got != want || (!want && !slices.Equal(held, wantHeld)) {
						t.Fatalf("seed %d: %s ForeignNearVia(%s at %v) = %v holding %v, brute force %v holding %v", seed, name, v.Name, p, got, held, want, wantHeld)
					}
				}
				for _, c := range []struct {
					name string
					qc   *QueryCtx
					want bool
					held []int
				}{{"focused", qc, brute, bruteHeld}, {"unfocused", plain, brute, bruteHeld}, {"focused fixed", fixed, bruteFixed, bruteFixedHeld}, {"unfocused fixed", fixedIdx, bruteFixed, bruteFixedHeld}} {
					foreignNear(c.name, c.qc, c.want, c.held)
				}
				sawForeign, sawOwn = sawForeign || brute, sawOwn || !brute
				sawHeld = sawHeld || (!brute && len(bruteHeld) > 0)

				// A focus on a neighbouring drop covers v's windows at p only
				// in part: those windows query the index.
				q := geom.Pt(p.X+int64(rng.Intn(int(bin)))-bin/2, p.Y)
				for _, c := range []*QueryCtx{qc, fixed} {
					e.FocusVia(v, q, c)
					e.Focus(c)
				}
				if !allFocused(e, v, p, qc) {
					sawPartial = true
				}
				if got := sigOf(e, v, p, net, rects, qc); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: partly focused signature of %s at %v (focus at %v) = %x, index-built %x", seed, v.Name, p, q, got, want)
				}
				if got := sigOf(e, v, p, net, rects, fixed); !bytes.Equal(got, wantFixed) {
					t.Fatalf("seed %d: partly focused fixed signature of %s at %v (focus at %v) = %x, twin %x", seed, v.Name, p, q, got, wantFixed)
				}
				foreignNear("partly focused", qc, brute, bruteHeld)
				foreignNear("partly focused fixed", fixed, bruteFixed, bruteFixedHeld)
			}
			// A mutation retires the focus: a via object added over the via's
			// bottom enclosure stays out of the fixed view's next signature,
			// and a shape added there joins the next signature.
			v, p := vias[0], geom.Pt(0, 0)
			e.FocusVia(v, p, fixed)
			e.Focus(fixed)
			before := sigOf(e, v, p, 1, nil, fixed)
			e.Add(Obj{Kind: KindViaEnc, MetalLayer: v.CutBelow, Rect: v.BotRect(p), Net: 7})
			if got := sigOf(e, v, p, 1, nil, fixed); !bytes.Equal(got, before) {
				t.Fatalf("seed %d: fixed signature after a via Add = %x, before %x", seed, got, before)
			}
			e.FocusVia(v, p, qc)
			e.Focus(qc)
			e.AddMetal(v.CutBelow, v.BotRect(p), 7, KindWire, "")
			if got, want := sigOf(e, v, p, 1, nil, qc), sigOf(e, v, p, 1, nil, plain); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: signature after Add through a retired focus = %x, index-built %x", seed, got, want)
			}
		}
		if !sawPartial || !sawForeign || !sawOwn || !sawHeld || !sawVia {
			t.Fatalf("seed %d: cases not covered (partial focus %v, foreign %v, own only %v, own with a held object %v, a via in a signature %v)", seed, sawPartial, sawForeign, sawOwn, sawHeld, sawVia)
		}
	}
}

// TestFocusedVerdictAllocFree: a warm via verdict answered through a focus —
// FocusVia, Focus, then the cached lookup — allocates nothing, through a
// plain context and through a fixed one on an engine with a via object over
// the window, which the fixed view skips.
func TestFocusedVerdictAllocFree(t *testing.T) {
	var plainVerdict int
	for _, fixed := range []bool{false, true} {
		e, v, bar, _, qc := viaCacheFixture(t)
		e.AddMetal(1, geom.R(0, 530, 1000, 600), 2, KindPin, "blocker")
		p := geom.Pt(500, 435)
		if fixed {
			e.Add(Obj{Kind: KindViaEnc, MetalLayer: v.CutBelow + 1, Rect: v.TopRect(p), Net: 3})
			qc = e.NewFixedQueryCtx()
		}
		rects := []geom.Rect{bar}
		verdict := func() int {
			e.FocusVia(v, p, qc)
			e.Focus(qc)
			return e.CheckViaVerdictCtx(v, p, 1, rects, qc)
		}
		want := verdict() // fill
		if !allFocused(e, v, p, qc) {
			t.Fatalf("fixed %v: the verdict's windows are not focused", fixed)
		}
		if !fixed {
			plainVerdict = want
		} else if want != plainVerdict {
			t.Fatalf("fixed view: verdict %d with a via object over the window, %d without it", want, plainVerdict)
		} else if n := e.CheckViaVerdictCtx(v, p, 1, rects, e.NewQueryCtx()); n == want {
			t.Fatalf("the via object over the window changes no plain verdict (%d)", n)
		}
		hits := e.Counters.CacheHits.Load()
		if n := testing.AllocsPerRun(100, func() {
			if verdict() != want {
				t.Fatal("focused verdict changed")
			}
		}); n != 0 {
			t.Fatalf("fixed %v: warm focused verdict allocates %v times per call, want 0", fixed, n)
		}
		if e.Counters.CacheHits.Load() == hits {
			t.Fatalf("fixed %v: the measured calls were not cache hits", fixed)
		}
	}
}
