package drc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// TestDedupDoesNotClobberInput pins the fix for the old vs[:0] aliasing bug:
// Dedup must leave the caller's slice untouched.
func TestDedupDoesNotClobberInput(t *testing.T) {
	in := []Violation{
		{Rule: "Spacing", Layer: "M1", Where: geom.R(0, 0, 10, 10)},
		{Rule: "Spacing", Layer: "M1", Where: geom.R(0, 0, 10, 10)}, // dup of [0]
		{Rule: "Short", Layer: "M1", Where: geom.R(5, 5, 15, 15)},
		{Rule: "EOL", Layer: "M2", Where: geom.R(0, 0, 1, 1)},
	}
	orig := make([]Violation, len(in))
	copy(orig, in)

	out := Dedup(in)
	if len(out) != 3 {
		t.Fatalf("Dedup kept %d, want 3", len(out))
	}
	for i := range in {
		if in[i].Key() != orig[i].Key() {
			t.Fatalf("Dedup clobbered input[%d]: %s became %s", i, orig[i].Key(), in[i].Key())
		}
	}
	if len(in) >= 2 && &in[0] == &out[0] {
		t.Fatal("Dedup returned a view over the input's backing array")
	}
}

// viaCacheFixture builds an engine with one pin bar plus a cache and query
// context, returning everything a verdict-cache test needs.
func viaCacheFixture(t *testing.T) (*Engine, *tech.ViaDef, geom.Rect, *ViaCache, *QueryCtx) {
	t.Helper()
	tt := tech.N45()
	e := NewEngine(tt)
	bar := geom.R(0, 400, 1000, 470)
	e.AddMetal(1, bar, 1, KindPin, "pin")
	c := NewViaCache()
	e.AttachViaCache(c)
	return e, tt.ViaByName("VIA1_H"), bar, c, e.NewQueryCtx()
}

func TestViaCacheHitAndVerdictAgreement(t *testing.T) {
	e, v, bar, c, qc := viaCacheFixture(t)

	// Every cached verdict must equal the live check, clean and dirty alike.
	pts := []geom.Point{
		geom.Pt(500, 435), // clean: centered on the bar
		geom.Pt(500, 460), // min-step violation: misaligned
		geom.Pt(500, 435), // repeat of the clean drop (should hit)
	}
	for i, p := range pts {
		want := len(e.CheckVia(v, p, 1, []geom.Rect{bar}))
		if got := e.CheckViaVerdictCtx(v, p, 1, []geom.Rect{bar}, qc); got != want {
			t.Fatalf("pt %d: cached verdict %d != live %d", i, got, want)
		}
	}
	if hits := e.Counters.CacheHits.Load(); hits != 1 {
		t.Fatalf("CacheHits = %d, want 1 (third drop repeats the first)", hits)
	}
	if misses := e.Counters.CacheMisses.Load(); misses != 2 {
		t.Fatalf("CacheMisses = %d, want 2", misses)
	}
	if c.Len() != 2 {
		t.Fatalf("cache Len = %d, want 2", c.Len())
	}

	// Translation invariance: an identical bar far away must hit the same
	// entries (same relative signature), not add new ones.
	e2 := NewEngine(e.Tech)
	bar2 := bar.Shift(geom.Pt(100000, 50000))
	e2.AddMetal(1, bar2, 9, KindPin, "pin-far")
	e2.AttachViaCache(c)
	qc2 := e2.NewQueryCtx()
	p2 := geom.Pt(100500, 50435)
	if got := e2.CheckViaVerdictCtx(v, p2, 9, []geom.Rect{bar2}, qc2); got != 0 {
		t.Fatalf("translated clean drop verdict = %d, want 0", got)
	}
	if hits := e2.Counters.CacheHits.Load(); hits != 1 {
		t.Fatalf("cross-engine CacheHits = %d, want 1 (shared cache, same signature)", hits)
	}
	if c.Len() != 2 {
		t.Fatalf("cache grew to %d after a translated repeat, want 2", c.Len())
	}
}

// TestViaCacheMutationRekeys: the cache needs no invalidation. After an Add
// or Remove next to a cached drop, the drop's environment encodes to a new
// key, so its verdict is recomputed (a miss) and equals the live check, while
// an entry far from the mutation keeps serving hits.
func TestViaCacheMutationRekeys(t *testing.T) {
	e, v, bar, c, qc := viaCacheFixture(t)
	farBar := geom.R(50000, 400, 51000, 470)
	e.AddMetal(1, farBar, 3, KindPin, "pin-far")
	near, far := []geom.Rect{bar}, []geom.Rect{farBar}
	pNear, pFar := geom.Pt(500, 435), geom.Pt(50500, 460)

	// verdict checks one cached verdict against the live check and reports
	// whether it was a hit.
	verdict := func(what string, p geom.Point, net int, rects []geom.Rect) (hit bool) {
		t.Helper()
		hits := e.Counters.CacheHits.Load()
		misses := e.Counters.CacheMisses.Load()
		if got, want := e.CheckViaVerdictCtx(v, p, net, rects, qc), len(e.CheckViaCtx(v, p, net, rects, qc)); got != want {
			t.Fatalf("%s: cached verdict %d != live %d", what, got, want)
		}
		dh, dm := e.Counters.CacheHits.Load()-hits, e.Counters.CacheMisses.Load()-misses
		if dh+dm != 1 {
			t.Fatalf("%s: %d hits + %d misses, want one lookup", what, dh, dm)
		}
		return dh == 1
	}
	verdict("near", pNear, 1, near)
	verdict("far", pFar, 3, far)
	if c.Len() != 2 {
		t.Fatalf("cache Len = %d, want 2 distinct signatures", c.Len())
	}

	// Add: a foreign bar 60 nm above the near drop makes it dirty.
	blocker := e.AddMetal(1, geom.R(0, 530, 1000, 600), 2, KindPin, "blocker")
	if verdict("near after Add", pNear, 1, near) {
		t.Fatal("near drop hit after an Add changed its environment")
	}
	if !verdict("far after Add", pFar, 3, far) {
		t.Fatal("far entry did not hit after a distant Add")
	}

	// Remove, on a fresh cache so the blocker-free environment is unseen.
	c = NewViaCache()
	e.AttachViaCache(c)
	verdict("near with blocker", pNear, 1, near)
	e.Remove(blocker)
	if verdict("near after Remove", pNear, 1, near) {
		t.Fatal("near drop hit after a Remove changed its environment")
	}
	if c.Len() != 2 {
		t.Fatalf("cache Len = %d, want 2 (nothing is evicted)", c.Len())
	}
}

// TestViaCacheSingleflight: concurrent first lookups of one key fill the
// cache exactly once, so check counters stay schedule-independent.
func TestViaCacheSingleflight(t *testing.T) {
	e, v, bar, _, _ := viaCacheFixture(t)
	p := geom.Pt(500, 435)

	const workers = 8
	var wg sync.WaitGroup
	verdicts := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qc := e.NewQueryCtx()
			verdicts[i] = e.CheckViaVerdictCtx(v, p, 1, []geom.Rect{bar}, qc)
		}(i)
	}
	wg.Wait()
	for i, got := range verdicts {
		if got != 0 {
			t.Fatalf("worker %d verdict = %d, want 0", i, got)
		}
	}
	if misses := e.Counters.CacheMisses.Load(); misses != 1 {
		t.Fatalf("CacheMisses = %d, want 1 (singleflight)", misses)
	}
	if total := e.Counters.CacheHits.Load() + e.Counters.CacheMisses.Load(); total != workers {
		t.Fatalf("hits+misses = %d, want %d", total, workers)
	}
}

// TestViaCacheBypass: no cache, no query ctx, or an installed fault hook all
// fall back to the live check and never touch the counters.
func TestViaCacheBypass(t *testing.T) {
	tt := tech.N45()
	e := NewEngine(tt)
	bar := geom.R(0, 400, 1000, 470)
	e.AddMetal(1, bar, 1, KindPin, "pin")
	v := tt.ViaByName("VIA1_H")
	p := geom.Pt(500, 435)

	if got := e.CheckViaVerdict(v, p, 1, []geom.Rect{bar}); got != 0 {
		t.Fatalf("uncached verdict = %d, want 0", got)
	}
	c := NewViaCache()
	e.AttachViaCache(c)
	e.FaultHook = func(site string) []Violation { return nil }
	qc := e.NewQueryCtx()
	if got := e.CheckViaVerdictCtx(v, p, 1, []geom.Rect{bar}, qc); got != 0 {
		t.Fatalf("fault-hook verdict = %d, want 0", got)
	}
	if c.Len() != 0 {
		t.Fatal("fault-hooked check must not populate the cache")
	}
	if n := e.Counters.CacheHits.Load() + e.Counters.CacheMisses.Load(); n != 0 {
		t.Fatalf("bypass paths touched cache counters: %d", n)
	}
}

// TestViaCacheShardCap: a shard filled to its cap is reset by the next
// miss, so it never holds more than viaShardCap entries, and the verdict it
// then returns is still the live one.
func TestViaCacheShardCap(t *testing.T) {
	e, v, bar, c, qc := viaCacheFixture(t)
	p := geom.Pt(500, 460) // dirty: min step
	rects := []geom.Rect{bar}
	sig := append([]byte(nil), e.viaSignature(v, p, 1, rects, qc)...)
	sh := c.shard(sig)
	// Fill the shard with placeholder entries whose verdict no real check
	// returns, so an answer leaking from them would show.
	for i := 0; sh.n < viaShardCap; i++ {
		ent, _ := sh.entry(v, []byte(fmt.Sprintf("filler-%d", i)))
		ent.verdict = -1
		ent.wg.Done()
	}
	if got, want := e.CheckViaVerdictCtx(v, p, 1, rects, qc), len(e.CheckViaCtx(v, p, 1, rects, qc)); got != want || want == 0 {
		t.Fatalf("verdict past the cap = %d, live %d (want a dirty drop)", got, want)
	}
	if sh.n > viaShardCap {
		t.Fatalf("shard holds %d entries, cap %d", sh.n, viaShardCap)
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d after the reset, want 1", c.Len())
	}
	hits := e.Counters.CacheHits.Load()
	if got, want := e.CheckViaVerdictCtx(v, p, 1, rects, qc), len(e.CheckViaCtx(v, p, 1, rects, qc)); got != want {
		t.Fatalf("repeat verdict %d != live %d", got, want)
	}
	if e.Counters.CacheHits.Load() != hits+1 {
		t.Fatal("the entry filled after the reset did not hit")
	}
}

// TestViaCacheHitAllocFree pins drc.verdict.allocs = 0: a warm cached verdict
// allocates nothing.
func TestViaCacheHitAllocFree(t *testing.T) {
	e, v, bar, _, qc := viaCacheFixture(t)
	p := geom.Pt(500, 435)
	rects := []geom.Rect{bar}
	e.CheckViaVerdictCtx(v, p, 1, rects, qc) // fill
	hits := e.Counters.CacheHits.Load()
	if n := testing.AllocsPerRun(100, func() { e.CheckViaVerdictCtx(v, p, 1, rects, qc) }); n != 0 {
		t.Fatalf("warm cached verdict allocates %v times per call, want 0", n)
	}
	if e.Counters.CacheHits.Load() == hits {
		t.Fatal("the measured calls were not cache hits")
	}
}

// TestMetalRectCountAllocFree: the count-only metal check returns the report
// path's violation count, moves the same counters and allocates nothing, even
// for a stub whose report would carry formatted notes.
func TestMetalRectCountAllocFree(t *testing.T) {
	e, _, _, _, qc := viaCacheFixture(t)
	e.AddMetal(1, geom.R(0, 530, 1000, 600), 2, KindPin, "blocker")
	stub := geom.R(500, 400, 640, 500) // shorts the net-1 bar, too close to the blocker
	c0 := e.Counters.Snapshot()
	report := e.CheckMetalRectCtx(1, stub, 3, qc)
	if len(report) == 0 {
		t.Fatal("fixture stub must violate")
	}
	c1 := e.Counters.Snapshot()
	if got := e.CheckMetalRectCountCtx(1, stub, 3, qc); got != len(report) {
		t.Fatalf("count-only check = %d, report has %d", got, len(report))
	}
	c2 := e.Counters.Snapshot()
	for name := range c0 {
		if dr, dc := c1[name]-c0[name], c2[name]-c1[name]; dr != dc {
			t.Errorf("%s moved %d on the report path, %d on the count path", name, dr, dc)
		}
	}
	e.CheckMetalRectCountCtx(1, stub, 3, qc) // warm the arena
	if n := testing.AllocsPerRun(100, func() { e.CheckMetalRectCountCtx(1, stub, 3, qc) }); n != 0 {
		t.Fatalf("count-only metal check allocates %v times per call, want 0", n)
	}
}
