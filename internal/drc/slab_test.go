package drc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestQueryCtxSurvivesMidContextAdd pins the stamp-growth regression: a
// QueryCtx created before later Adds used to carry a too-short visit-stamp
// buffer, and the first query touching a new object panicked with an index
// out of range. A context holds no per-object state now; shapes added after
// it was made must still be found through it.
func TestQueryCtxSurvivesMidContextAdd(t *testing.T) {
	e := NewEngine(tech.N45())
	e.AddMetal(1, geom.R(0, 0, 100, 70), 1, KindPin, "p0")
	qc := e.NewQueryCtx()
	if got := e.QueryMetalCtx(1, geom.R(0, 0, 50, 50), qc); len(got) != 1 {
		t.Fatalf("warm-up query = %v, want 1 id", got)
	}
	// Add well past the engine's size when the context was made.
	var late []int
	for i := 0; i < 50; i++ {
		late = append(late, e.AddMetal(1, geom.R(int64(i)*1000+500, 0, int64(i)*1000+600, 70), i+2, KindWire, ""))
	}
	got := e.QueryMetalCtx(1, geom.R(500, 0, 50600, 70), qc)
	if len(got) != len(late) {
		t.Fatalf("query after mid-context Add = %d ids, want %d", len(got), len(late))
	}
	// And the cut side of the same contract.
	cid := e.AddCut(1, geom.R(0, 0, 65, 65), 1, "")
	if got := e.QueryCutCtx(1, geom.R(0, 0, 10, 10), qc); len(got) != 1 || got[0] != cid {
		t.Fatalf("cut query after mid-context Add = %v, want [%d]", got, cid)
	}
}

// TestNewEngineDegenerateTech pins the zero-pitch regression: a technology
// whose metal-1 pitch is zero (or that has no metals at all) must not give
// the spatial index a zero bin size, which divided by zero on first insert.
func TestNewEngineDegenerateTech(t *testing.T) {
	zeroPitch := &tech.Technology{
		Name:   "degenerate",
		Metals: []*tech.RoutingLayer{{Name: "M1", Num: 1}},
	}
	e := NewEngine(zeroPitch)
	id := e.AddMetal(1, geom.R(0, 0, 100, 70), 1, KindPin, "p")
	if got := e.QueryMetal(1, geom.R(50, 50, 60, 60)); len(got) != 1 || got[0] != id {
		t.Fatalf("query on zero-pitch tech = %v, want [%d]", got, id)
	}

	empty := &tech.Technology{Name: "empty"}
	e2 := NewEngine(empty)
	if got := e2.QueryMetal(1, geom.R(0, 0, 10, 10)); got != nil {
		t.Fatalf("query on metal-less tech = %v, want nil", got)
	}
}

// TestDedupKeyEquivalence pins the struct-key Dedup against the string Key()
// contract: identical survivors in identical order, notes ignored.
func TestDedupKeyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rulesList := []string{"Short", "Spacing", "EOL", "MinStep", "CutSpacing"}
	layers := []string{"M1", "M2", "V1"}
	var vs []Violation
	for i := 0; i < 200; i++ {
		vs = append(vs, Violation{
			Rule:  rulesList[rng.Intn(len(rulesList))],
			Layer: layers[rng.Intn(len(layers))],
			Where: geom.R(int64(rng.Intn(3)), int64(rng.Intn(3)), int64(4+rng.Intn(3)), int64(4+rng.Intn(3))),
			Note:  fmt.Sprintf("note %d", i), // unique: must not affect the key
		})
	}
	// Reference dedup on the wire-format string key.
	seen := make(map[string]bool)
	var want []Violation
	for _, v := range vs {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			want = append(want, v)
		}
	}
	got := Dedup(vs)
	if len(got) != len(want) {
		t.Fatalf("Dedup kept %d, string-key reference kept %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivor %d: got %+v, want %+v (order must be preserved)", i, got[i], want[i])
		}
	}
}

// TestBinIndexMultiBinRemove covers multi-bin membership end to end: a shape
// spanning many grid cells is found through any of them, once, and
// disappears from all of them on removal. No cell list ever holds an ID
// twice, before or after a compaction: the query reports a shape only from
// the cell of its overlap's low corner, so a duplicate entry would be
// reported twice.
func TestBinIndexMultiBinRemove(t *testing.T) {
	e := NewEngine(tech.N45())
	wide := geom.R(-50000, -3000, 150000, 3000) // spans many bins incl. negatives
	id := e.AddMetal(1, wide, 1, KindWire, "wide")
	windows := []geom.Rect{
		geom.R(-49000, 0, -48000, 10),
		geom.R(0, 0, 10, 10),
		geom.R(149000, 0, 149500, 10),
	}
	for _, w := range windows {
		if got := e.QueryMetal(1, w); len(got) != 1 || got[0] != id {
			t.Fatalf("window %v = %v, want [%d]", w, got, id)
		}
	}
	if got := e.QueryMetal(1, wide); len(got) != 1 || got[0] != id {
		t.Fatalf("whole-shape window = %v, want [%d]", got, id)
	}
	checkNoDupCells(t, e)
	e.Compact()
	checkNoDupCells(t, e)
	late := e.AddMetal(1, wide, 2, KindWire, "wide-late") // overflow over the dense grid
	checkNoDupCells(t, e)
	if got := e.QueryMetal(1, wide); len(got) != 2 || got[0] != id || got[1] != late {
		t.Fatalf("whole-shape window with overflow = %v, want [%d %d]", got, id, late)
	}
	e.Remove(late)
	e.Remove(id)
	checkNoDupCells(t, e)
	for _, w := range windows {
		if got := e.QueryMetal(1, w); len(got) != 0 {
			t.Fatalf("window %v after remove = %v, want empty", w, got)
		}
	}
}

// TestCompactEquivalence checks that folding the overflow map into the dense
// grid is invisible to queries: identical results before and after Compact,
// with churn (removals) and post-compact inserts mixed in.
func TestCompactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewEngine(tech.N45())
	var ids []int
	for i := 0; i < 300; i++ {
		x, y := int64(rng.Intn(200000)), int64(rng.Intn(200000))
		ids = append(ids, e.AddMetal(1, geom.R(x, y, x+int64(100+rng.Intn(5000)), y+140), i, KindWire, ""))
	}
	for i := 0; i < 80; i++ {
		e.Remove(ids[rng.Intn(len(ids))])
	}
	windows := make([]geom.Rect, 40)
	for i := range windows {
		x, y := int64(rng.Intn(200000)), int64(rng.Intn(200000))
		windows[i] = geom.R(x, y, x+9000, y+9000)
	}
	snap := func() [][]int {
		out := make([][]int, len(windows))
		for i, w := range windows {
			out[i] = append([]int(nil), e.QueryMetal(1, w)...)
		}
		return out
	}
	before := snap()
	e.Compact()
	after := snap()
	for i := range windows {
		if fmt.Sprint(before[i]) != fmt.Sprint(after[i]) {
			t.Fatalf("window %v: pre-compact %v != post-compact %v", windows[i], before[i], after[i])
		}
	}
	// Post-compact inserts land in the overflow map and must be visible.
	nid := e.AddMetal(1, geom.R(500000, 500000, 500100, 500140), 999, KindWire, "")
	if got := e.QueryMetal(1, geom.R(500000, 500000, 500050, 500050)); len(got) != 1 || got[0] != nid {
		t.Fatalf("post-compact insert invisible: %v", got)
	}

	// Wildly spread extents must fall back to map-only mode and still answer.
	e2 := NewEngine(tech.N45())
	far := []int{
		e2.AddMetal(1, geom.R(0, 0, 100, 70), 1, KindWire, ""),
		e2.AddMetal(1, geom.R(9e8, 9e8, 9e8+100, 9e8+70), 2, KindWire, ""),
	}
	e2.Compact()
	if !e2.metal[1].mapOnly {
		t.Fatal("spread extents should compact to map-only mode")
	}
	if got := e2.QueryMetal(1, geom.R(0, 0, 10, 10)); len(got) != 1 || got[0] != far[0] {
		t.Fatalf("map-only query near origin = %v", got)
	}
	if got := e2.QueryMetal(1, geom.R(9e8, 9e8, 9e8+10, 9e8+10)); len(got) != 1 || got[0] != far[1] {
		t.Fatalf("map-only query far out = %v", got)
	}
}

// TestSaturatedCoordinates drives shapes and windows beyond int32 range: the
// clamped slab compare alone would report spurious touches between saturated
// rows, so the exact int64 confirm must kick in.
func TestSaturatedCoordinates(t *testing.T) {
	e := NewEngine(tech.N45())
	const big = int64(3_000_000_000) // > MaxInt32
	a := e.AddMetal(1, geom.R(big, 0, big+100, 70), 1, KindWire, "far-a")
	e.AddMetal(1, geom.R(big+10_000, 0, big+10_100, 70), 2, KindWire, "far-b")
	near := e.AddMetal(1, geom.R(0, 0, 100, 70), 3, KindWire, "near")

	// Both saturated shapes clamp to MaxInt32: without the exact confirm a
	// window over one would return the other too.
	if got := e.QueryMetal(1, geom.R(big-10, 0, big+110, 70)); len(got) != 1 || got[0] != a {
		t.Fatalf("saturated window = %v, want [%d]", got, a)
	}
	// A saturated window must not capture unsaturated shapes it misses.
	if got := e.QueryMetal(1, geom.R(big, 0, big+20_000, 70)); len(got) != 2 {
		t.Fatalf("wide saturated window = %v, want both far shapes", got)
	}
	if got := e.QueryMetal(1, geom.R(0, 0, 50, 50)); len(got) != 1 || got[0] != near {
		t.Fatalf("near window = %v, want [%d]", got, near)
	}
}

// TestConcurrentQueryCtx exercises the documented concurrency contract under
// the race detector: a frozen engine, N goroutines with private contexts
// querying and via-checking disjoint regions against the shared slabs.
func TestConcurrentQueryCtx(t *testing.T) {
	e := NewEngine(tech.N45())
	tc := tech.N45()
	via := tc.ViasAbove(1)[0]
	for i := 0; i < 40; i++ {
		x := int64(i) * 20000
		e.AddMetal(1, geom.R(x, 0, x+400, 70), i, KindPin, "")
		e.AddMetal(1, geom.R(x, 200, x+400, 270), NoNet, KindObs, "")
		e.AddCut(1, geom.R(x, 1000, x+65, 1065), i, "")
	}
	e.Compact()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qc := e.NewQueryCtx()
			for i := w; i < 40; i += workers {
				x := int64(i) * 20000
				if got := e.QueryMetalCtx(1, geom.R(x, 0, x+400, 300), qc); len(got) != 2 {
					errs <- fmt.Errorf("worker %d: window %d returned %v", w, i, got)
					return
				}
				if got := e.QueryCutCtx(1, geom.R(x, 1000, x+65, 1065), qc); len(got) != 1 {
					errs <- fmt.Errorf("worker %d: cut window %d returned %v", w, i, got)
					return
				}
				// Exercise the full arena path (union, connectivity, verdicts).
				e.CheckViaCtx(via, geom.Pt(x+200, 35), i, []geom.Rect{geom.R(x, 0, x+400, 70)}, qc)
				e.CheckViaVerdictCtx(via, geom.Pt(x+200, 35), i, []geom.Rect{geom.R(x, 0, x+400, 70)}, qc)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCheckViaVerdictMatchesReport pins the count-only verdict core against
// the report path across a sweep of drop positions, cache off and on.
func TestCheckViaVerdictMatchesReport(t *testing.T) {
	tc := tech.N45()
	e := NewEngine(tc)
	via := tc.ViasAbove(1)[0]
	for i := 0; i < 12; i++ {
		x := int64(i) * 400
		e.AddMetal(1, geom.R(x, 0, x+190, 70), i%3, KindPin, "")
		e.AddMetal(2, geom.R(x, -200, x+70, 400), (i+1)%3, KindWire, "")
		e.AddCut(1, geom.R(x+300, 0, x+365, 65), i%3, "")
	}
	qc := e.NewQueryCtx()
	sameNetRects := []geom.Rect{geom.R(0, 0, 190, 70)}
	for x := int64(-100); x <= 5000; x += 35 {
		p := geom.Pt(x, 35)
		want := len(e.CheckViaCtx(via, p, 1, sameNetRects, nil))
		got := e.checkViaVerdictCount(via, p, 1, sameNetRects, qc)
		if got != want {
			t.Fatalf("at %v: verdict count %d != report %d", p, got, want)
		}
		if v := e.CheckViaVerdictCtx(via, p, 1, sameNetRects, qc); v != want {
			t.Fatalf("at %v: CheckViaVerdictCtx %d != report %d", p, v, want)
		}
	}
	// Same sweep with a cache attached: fills and hits must agree too.
	e.AttachViaCache(NewViaCache())
	for pass := 0; pass < 2; pass++ {
		for x := int64(-100); x <= 5000; x += 35 {
			p := geom.Pt(x, 35)
			want := len(e.CheckViaCtx(via, p, 1, sameNetRects, nil))
			if v := e.CheckViaVerdictCtx(via, p, 1, sameNetRects, qc); v != want {
				t.Fatalf("cached pass %d at %v: verdict %d != report %d", pass, p, v, want)
			}
		}
	}
}

// TestEngineRecordSize pins the engine's per-object record at 24 bytes with
// no pointer field, so the garbage collector never scans the object array.
func TestEngineRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(obj{}); n != 24 {
		t.Errorf("engine record is %d bytes, want 24", n)
	}
	rt := reflect.TypeOf(obj{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("engine record field %s is a %s, which holds a pointer", f.Name, f.Type.Kind())
		}
	}
}

// TestNewQueryCtxAllocsFlat: a QueryCtx holds no per-object state, so making
// one on a 100K-object engine allocates what it does on an empty engine,
// counted in allocations and in bytes.
func TestNewQueryCtxAllocsFlat(t *testing.T) {
	empty := NewEngine(tech.N45())
	full := NewEngine(tech.N45())
	full.Grow(100_000)
	for i := 0; i < 100_000; i++ {
		x := int64(i%1000) * 200
		y := int64(i/1000) * 200
		full.AddMetal(1+i%2, geom.R(x, y, x+100, y+70), i%50, KindPin, "")
	}
	full.Compact()
	var sink *QueryCtx
	measure := func(e *Engine) (allocs float64, bytes uint64) {
		allocs = testing.AllocsPerRun(100, func() { sink = e.NewQueryCtx() })
		const runs = 1000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			sink = e.NewQueryCtx()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	ea, eb := measure(empty)
	fa, fb := measure(full)
	_ = sink
	if fa != ea || fb != eb {
		t.Fatalf("NewQueryCtx on 100K objects: %v allocs, %d bytes; on an empty engine: %v allocs, %d bytes", fa, fb, ea, eb)
	}
}
