package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func TestUnionSingleRect(t *testing.T) {
	polys := UnionRects([]Rect{{0, 0, 10, 4}})
	if len(polys) != 1 {
		t.Fatalf("got %d polygons, want 1", len(polys))
	}
	p := polys[0]
	if len(p.Holes) != 0 {
		t.Fatalf("got %d holes, want 0", len(p.Holes))
	}
	if len(p.Outer) != 4 {
		t.Fatalf("outer ring has %d vertices, want 4: %v", len(p.Outer), p.Outer)
	}
	if p.Area() != 40 {
		t.Fatalf("area = %d, want 40", p.Area())
	}
	if p.BBox() != (Rect{0, 0, 10, 4}) {
		t.Fatalf("bbox = %v", p.BBox())
	}
	if p.Outer.SignedArea2() <= 0 {
		t.Fatal("outer ring must be counterclockwise")
	}
}

func TestUnionLShape(t *testing.T) {
	// Two rects forming an L.
	polys := UnionRects([]Rect{{0, 0, 10, 2}, {0, 0, 2, 10}})
	if len(polys) != 1 {
		t.Fatalf("got %d polygons, want 1", len(polys))
	}
	p := polys[0]
	if len(p.Outer) != 6 {
		t.Fatalf("L outline has %d vertices, want 6: %v", len(p.Outer), p.Outer)
	}
	if p.Area() != 10*2+2*10-2*2 {
		t.Fatalf("area = %d, want 36", p.Area())
	}
}

func TestUnionDisjoint(t *testing.T) {
	polys := UnionRects([]Rect{{0, 0, 2, 2}, {10, 10, 12, 12}})
	if len(polys) != 2 {
		t.Fatalf("got %d polygons, want 2", len(polys))
	}
}

func TestUnionAbutting(t *testing.T) {
	// Edge-abutting rects merge into one polygon.
	polys := UnionRects([]Rect{{0, 0, 5, 4}, {5, 0, 10, 4}})
	if len(polys) != 1 {
		t.Fatalf("got %d polygons, want 1", len(polys))
	}
	if len(polys[0].Outer) != 4 {
		t.Fatalf("merged outline has %d vertices, want 4: %v", len(polys[0].Outer), polys[0].Outer)
	}
}

func TestUnionCornerTouch(t *testing.T) {
	// Corner-touching rects stay separate components (4-connectivity).
	polys := UnionRects([]Rect{{0, 0, 5, 5}, {5, 5, 10, 10}})
	if len(polys) != 2 {
		t.Fatalf("got %d polygons, want 2 (corner touch must not merge)", len(polys))
	}
}

func TestUnionHole(t *testing.T) {
	// A frame made of four rects enclosing a hole.
	frame := []Rect{
		{0, 0, 10, 2},  // bottom
		{0, 8, 10, 10}, // top
		{0, 0, 2, 10},  // left
		{8, 0, 10, 10}, // right
	}
	polys := UnionRects(frame)
	if len(polys) != 1 {
		t.Fatalf("got %d polygons, want 1", len(polys))
	}
	p := polys[0]
	if len(p.Holes) != 1 {
		t.Fatalf("got %d holes, want 1", len(p.Holes))
	}
	if p.Holes[0].SignedArea2() >= 0 {
		t.Fatal("hole ring must be clockwise")
	}
	if p.Area() != 100-36 {
		t.Fatalf("area = %d, want 64", p.Area())
	}
	hb := p.Holes[0].BBox()
	if hb != (Rect{2, 2, 8, 8}) {
		t.Fatalf("hole bbox = %v, want (2,2)-(8,8)", hb)
	}
}

func TestUnionOverlapping(t *testing.T) {
	polys := UnionRects([]Rect{{0, 0, 6, 6}, {3, 3, 9, 9}})
	if len(polys) != 1 {
		t.Fatalf("got %d polygons, want 1", len(polys))
	}
	if got := polys[0].Area(); got != 36+36-9 {
		t.Fatalf("area = %d, want 63", got)
	}
	if len(polys[0].Outer) != 8 {
		t.Fatalf("outline has %d vertices, want 8", len(polys[0].Outer))
	}
}

func TestUnionIgnoresDegenerate(t *testing.T) {
	polys := UnionRects([]Rect{{0, 0, 0, 10}, {5, 5, 5, 5}})
	if len(polys) != 0 {
		t.Fatalf("degenerate rects produced %d polygons", len(polys))
	}
	if UnionArea(nil) != 0 {
		t.Fatal("UnionArea(nil) != 0")
	}
}

func TestRingEdges(t *testing.T) {
	polys := UnionRects([]Rect{{0, 0, 10, 4}})
	edges := polys[0].Outer.Edges()
	if len(edges) != 4 {
		t.Fatalf("got %d edges, want 4", len(edges))
	}
	var totalLen int64
	for _, e := range edges {
		totalLen += e.Length()
		if e.Horizontal() && e.P1.Y != e.P2.Y {
			t.Errorf("edge %v inconsistent orientation", e)
		}
	}
	if totalLen != 2*(10+4) {
		t.Fatalf("perimeter = %d, want 28", totalLen)
	}
	// Outside normals of a CCW rectangle point away from the center.
	c := Pt(5, 2)
	for _, e := range edges {
		n := e.OutsideNormal()
		mid := Pt((e.P1.X+e.P2.X)/2, (e.P1.Y+e.P2.Y)/2)
		// Stepping from the midpoint along the normal must increase distance
		// from the center.
		before := mid.ManhattanDist(c)
		after := mid.Add(n).ManhattanDist(c)
		if after <= before {
			t.Errorf("edge %v normal %v points inward", e, n)
		}
	}
}

func TestUnionAreaMatchesPolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rects := randRects(rng, 1+rng.Intn(12), 200)
		want := UnionArea(rects)
		var got int64
		for _, p := range UnionRects(rects) {
			got += p.Area()
		}
		if got != want {
			t.Fatalf("trial %d: polygon area sum %d != union area %d (rects %v)", trial, got, want, rects)
		}
	}
}

// TestMaxRectsScratchReuse: one scratch reused across random shape sets
// that grow and shrink answers as a fresh MaxRects each time, an empty set
// included.
func TestMaxRectsScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s MaxRectsScratch
	for i := 0; i < 300; i++ {
		rects := make([]Rect, rng.Intn(7))
		for j := range rects {
			x, y := rng.Int63n(60), rng.Int63n(60)
			rects[j] = R(x, y, x+rng.Int63n(40), y+rng.Int63n(40))
		}
		got, want := s.MaxRects(rects), MaxRects(rects)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: reused scratch gives %v, a fresh one %v", rects, got, want)
		}
	}
}

// TestMaxRectsScratchNoAllocsWarm: a warm scratch takes the maximal
// rectangles of a pin-like shape set without allocating.
func TestMaxRectsScratchNoAllocsWarm(t *testing.T) {
	var s MaxRectsScratch
	rects := []Rect{R(0, 0, 140, 70), R(40, 0, 110, 420), R(0, 350, 280, 420)}
	if len(s.MaxRects(rects)) < 3 {
		t.Fatal("the shape set has fewer than three maximal rectangles")
	}
	if n := testing.AllocsPerRun(50, func() { s.MaxRects(rects) }); n != 0 {
		t.Fatalf("warm MaxRects allocates %v times per run, want 0", n)
	}
}

func TestMaxRectsSingle(t *testing.T) {
	got := MaxRects([]Rect{{0, 0, 10, 4}})
	if len(got) != 1 || got[0] != (Rect{0, 0, 10, 4}) {
		t.Fatalf("MaxRects = %v", got)
	}
}

func TestMaxRectsCross(t *testing.T) {
	// A plus/cross shape has exactly two maximal rectangles: the horizontal
	// bar and the vertical bar.
	h := Rect{0, 4, 12, 8}
	v := Rect{4, 0, 8, 12}
	got := MaxRects([]Rect{h, v})
	if len(got) != 2 {
		t.Fatalf("MaxRects(cross) = %v, want 2 rects", got)
	}
	found := map[Rect]bool{}
	for _, r := range got {
		found[r] = true
	}
	if !found[h] || !found[v] {
		t.Fatalf("MaxRects(cross) = %v, want the two bars", got)
	}
}

func TestMaxRectsLShape(t *testing.T) {
	got := MaxRects([]Rect{{0, 0, 10, 2}, {0, 0, 2, 10}})
	if len(got) != 2 {
		t.Fatalf("MaxRects(L) = %v, want 2 rects", got)
	}
	for _, r := range got {
		if r != (Rect{0, 0, 10, 2}) && r != (Rect{0, 0, 2, 10}) {
			t.Fatalf("unexpected maximal rect %v", r)
		}
	}
}

// Property: every maximal rectangle is covered by the union and cannot be
// bloated by one unit in any single direction while staying covered.
func TestMaxRectsMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	covered := func(rects []Rect, r Rect) bool {
		return UnionArea(append([]Rect{}, rects...)) == UnionArea(append(append([]Rect{}, rects...), r)) // r adds nothing
	}
	for trial := 0; trial < 30; trial++ {
		rects := randRects(rng, 1+rng.Intn(8), 100)
		for _, m := range MaxRects(rects) {
			if !covered(rects, m) {
				t.Fatalf("trial %d: maximal rect %v not covered by union of %v", trial, m, rects)
			}
			grown := []Rect{
				{m.XL - 1, m.YL, m.XH, m.YH},
				{m.XL, m.YL, m.XH + 1, m.YH},
				{m.XL, m.YL - 1, m.XH, m.YH},
				{m.XL, m.YL, m.XH, m.YH + 1},
			}
			for _, g := range grown {
				if covered(rects, g) {
					t.Fatalf("trial %d: rect %v not maximal (grows to %v)", trial, m, g)
				}
			}
		}
	}
}

func TestCoversPt(t *testing.T) {
	rects := []Rect{{0, 0, 4, 4}, {10, 10, 14, 14}}
	if !CoversPt(rects, Pt(4, 4)) {
		t.Error("boundary point must be covered")
	}
	if CoversPt(rects, Pt(5, 5)) {
		t.Error("gap point must not be covered")
	}
}

func TestRingSlices(t *testing.T) {
	// An L: (0,0) (10,0) (10,4) (4,4) (4,10) (0,10).
	ring := Ring{Pt(0, 0), Pt(10, 0), Pt(10, 4), Pt(4, 4), Pt(4, 10), Pt(0, 10)}
	rects, err := RingSlices(ring)
	if err != nil {
		t.Fatal(err)
	}
	if got := UnionArea(rects); got != 10*4+4*6 {
		t.Fatalf("sliced area = %d, want 64", got)
	}
	// Clockwise ring works too.
	rev := make(Ring, len(ring))
	for i := range ring {
		rev[i] = ring[len(ring)-1-i]
	}
	rects2, err := RingSlices(rev)
	if err != nil {
		t.Fatal(err)
	}
	if UnionArea(rects2) != UnionArea(rects) {
		t.Fatal("orientation changed the slice area")
	}
	// Errors.
	if _, err := RingSlices(Ring{Pt(0, 0), Pt(1, 1), Pt(0, 2)}); err == nil {
		t.Error("non-rectilinear ring must error")
	}
	if _, err := RingSlices(Ring{Pt(0, 0), Pt(1, 0)}); err == nil {
		t.Error("tiny ring must error")
	}
}

// Property: slicing the outer ring of a hole-free union polygon recovers its
// exact area.
func TestRingSlicesMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 60 && checked < 25; trial++ {
		rects := randRects(rng, 1+rng.Intn(6), 150)
		for _, poly := range UnionRects(rects) {
			if len(poly.Holes) > 0 {
				continue
			}
			slices, err := RingSlices(poly.Outer)
			if err != nil {
				t.Fatalf("trial %d: %v (ring %v)", trial, err, poly.Outer)
			}
			if got := UnionArea(slices); got != poly.Area() {
				t.Fatalf("trial %d: sliced area %d != polygon area %d", trial, got, poly.Area())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no polygons checked")
	}
}
