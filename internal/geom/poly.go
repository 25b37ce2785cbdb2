package geom

import (
	"cmp"
	"slices"
	"sort"
)

// Ring is a closed rectilinear contour. The last vertex implicitly connects
// back to the first. Edges alternate between horizontal and vertical. Outer
// contours are counterclockwise (positive signed area); holes are clockwise.
type Ring []Point

// SignedArea2 returns twice the signed area of the ring (positive for
// counterclockwise).
func (r Ring) SignedArea2() int64 {
	var a int64
	n := len(r)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += r[i].X*r[j].Y - r[j].X*r[i].Y
	}
	return a
}

// BBox returns the bounding box of the ring's vertices.
func (r Ring) BBox() Rect {
	if len(r) == 0 {
		return Rect{}
	}
	out := Rect{r[0].X, r[0].Y, r[0].X, r[0].Y}
	for _, p := range r[1:] {
		out.XL = minI64(out.XL, p.X)
		out.YL = minI64(out.YL, p.Y)
		out.XH = maxI64(out.XH, p.X)
		out.YH = maxI64(out.YH, p.Y)
	}
	return out
}

// Edges returns the directed edges of the ring in order.
func (r Ring) Edges() []Edge {
	n := len(r)
	out := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Edge{r[i], r[(i+1)%n]})
	}
	return out
}

// Edge is a directed rectilinear segment. For rings produced by UnionRects the
// polygon interior lies to the left of the direction of travel.
type Edge struct {
	P1, P2 Point
}

// Horizontal reports whether the edge runs along the x axis.
func (e Edge) Horizontal() bool { return e.P1.Y == e.P2.Y }

// Length returns the Manhattan length of the edge.
func (e Edge) Length() int64 { return e.P1.ManhattanDist(e.P2) }

// Rect returns the degenerate rectangle covering the edge.
func (e Edge) Rect() Rect { return R(e.P1.X, e.P1.Y, e.P2.X, e.P2.Y) }

// OutsideNormal returns the unit direction pointing away from the polygon
// interior (valid for interior-on-left edges).
func (e Edge) OutsideNormal() Point {
	dx := signI64(e.P2.X - e.P1.X)
	dy := signI64(e.P2.Y - e.P1.Y)
	// Right of direction (dx,dy) is (dy,-dx).
	return Point{dy, -dx}
}

// Polygon is a rectilinear polygon: one outer ring plus zero or more holes.
type Polygon struct {
	Outer Ring
	Holes []Ring
}

// BBox returns the bounding box of the outer ring.
func (p Polygon) BBox() Rect { return p.Outer.BBox() }

// Area returns the enclosed area (outer minus holes).
func (p Polygon) Area() int64 {
	a := p.Outer.SignedArea2()
	for _, h := range p.Holes {
		a += h.SignedArea2() // holes are clockwise: negative
	}
	return a / 2
}

// AllRings returns the outer ring followed by the holes.
func (p Polygon) AllRings() []Ring {
	out := make([]Ring, 0, 1+len(p.Holes))
	out = append(out, p.Outer)
	out = append(out, p.Holes...)
	return out
}

// grid is a coordinate-compressed occupancy grid over a set of rectangles.
type grid struct {
	xs, ys []int64
	cov    []bool // row-major: cov[j*nx+i] covers cell (xs[i],ys[j])-(xs[i+1],ys[j+1])
	comp   []int  // connected component id per covered cell, -1 for uncovered
	ncomp  int
}

func (g *grid) nx() int { return len(g.xs) - 1 }
func (g *grid) ny() int { return len(g.ys) - 1 }

func (g *grid) at(i, j int) bool { return g.cov[j*g.nx()+i] }

func buildGrid(rects []Rect) *grid {
	g := &grid{}
	g.build(rects)
	return g
}

// build fills g with the compressed grid over rects, reusing its buffers,
// and reports whether the rects cover any area; only then is g.cov set.
func (g *grid) build(rects []Rect) bool {
	g.xs, g.ys = g.xs[:0], g.ys[:0]
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		g.xs = append(g.xs, r.XL, r.XH)
		g.ys = append(g.ys, r.YL, r.YH)
	}
	g.xs = dedupSorted(g.xs)
	g.ys = dedupSorted(g.ys)
	if len(g.xs) < 2 || len(g.ys) < 2 {
		return false
	}
	nx, ny := g.nx(), g.ny()
	g.cov = slices.Grow(g.cov[:0], nx*ny)[:nx*ny]
	clear(g.cov)
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		i0 := sort.Search(len(g.xs), func(i int) bool { return g.xs[i] >= r.XL })
		i1 := sort.Search(len(g.xs), func(i int) bool { return g.xs[i] >= r.XH })
		j0 := sort.Search(len(g.ys), func(j int) bool { return g.ys[j] >= r.YL })
		j1 := sort.Search(len(g.ys), func(j int) bool { return g.ys[j] >= r.YH })
		for j := j0; j < j1; j++ {
			row := g.cov[j*nx : (j+1)*nx]
			for i := i0; i < i1; i++ {
				row[i] = true
			}
		}
	}
	return true
}

// label assigns 4-connected component ids to covered cells.
func (g *grid) label() {
	nx, ny := g.nx(), g.ny()
	g.comp = make([]int, nx*ny)
	for i := range g.comp {
		g.comp[i] = -1
	}
	var stack []int
	for start := range g.cov {
		if !g.cov[start] || g.comp[start] >= 0 {
			continue
		}
		id := g.ncomp
		g.ncomp++
		stack = append(stack[:0], start)
		g.comp[start] = id
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			i, j := c%nx, c/nx
			for _, nb := range [4][2]int{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
				ni, nj := nb[0], nb[1]
				if ni < 0 || nj < 0 || ni >= nx || nj >= ny {
					continue
				}
				nc := nj*nx + ni
				if g.cov[nc] && g.comp[nc] < 0 {
					g.comp[nc] = id
					stack = append(stack, nc)
				}
			}
		}
	}
}

func dedupSorted(v []int64) []int64 {
	if len(v) == 0 {
		return v
	}
	slices.Sort(v) // allocation-free, unlike sort.Slice
	out := v[:1]
	for _, x := range v[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// UnionRects computes the union of a set of rectangles as disjoint rectilinear
// polygons with holes. Degenerate rectangles are ignored. The result is
// deterministic: polygons are ordered by component discovery (row-major over
// the compressed grid), ring vertices start at the ring's lexicographically
// smallest point.
func UnionRects(rects []Rect) []Polygon {
	g := buildGrid(rects)
	if g.cov == nil {
		return nil
	}
	g.label()
	polys := make([]Polygon, g.ncomp)
	ringsByComp := make([][]Ring, g.ncomp)

	nx, ny := g.nx(), g.ny()
	// Emit directed boundary edges per component (interior on the left),
	// keyed by start point for stitching.
	starts := make([]map[Point][]int, g.ncomp)
	edges := make([][]dirEdge, g.ncomp)
	addEdge := func(comp int, from, to Point) {
		if starts[comp] == nil {
			starts[comp] = make(map[Point][]int)
		}
		edges[comp] = append(edges[comp], dirEdge{from: from, to: to})
		starts[comp][from] = append(starts[comp][from], len(edges[comp])-1)
	}
	covAt := func(i, j int) bool {
		if i < 0 || j < 0 || i >= nx || j >= ny {
			return false
		}
		return g.at(i, j)
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if !g.at(i, j) {
				continue
			}
			c := g.comp[j*nx+i]
			x0, x1 := g.xs[i], g.xs[i+1]
			y0, y1 := g.ys[j], g.ys[j+1]
			if !covAt(i, j-1) { // bottom: travel +x, interior above (left)
				addEdge(c, Pt(x0, y0), Pt(x1, y0))
			}
			if !covAt(i, j+1) { // top: travel -x
				addEdge(c, Pt(x1, y1), Pt(x0, y1))
			}
			if !covAt(i-1, j) { // left: travel -y
				addEdge(c, Pt(x0, y1), Pt(x0, y0))
			}
			if !covAt(i+1, j) { // right: travel +y
				addEdge(c, Pt(x1, y0), Pt(x1, y1))
			}
		}
	}

	for comp := 0; comp < g.ncomp; comp++ {
		es := edges[comp]
		for seed := range es {
			if es[seed].used {
				continue
			}
			ring := traceRing(es, starts[comp], seed)
			ringsByComp[comp] = append(ringsByComp[comp], ring)
		}
	}
	for comp, rings := range ringsByComp {
		for _, ring := range rings {
			if ring.SignedArea2() > 0 {
				polys[comp].Outer = ring
			} else {
				polys[comp].Holes = append(polys[comp].Holes, ring)
			}
		}
	}
	return polys
}

// dirEdge is a directed boundary edge used during ring stitching.
type dirEdge struct {
	from, to Point
	used     bool
}

// traceRing walks directed edges starting at seed, always taking the most
// counterclockwise available turn so that degenerate corner touches resolve
// without self-intersection. Collinear runs are merged, and the resulting ring
// is rotated to start at its smallest vertex for determinism.
func traceRing(es []dirEdge, starts map[Point][]int, seed int) Ring {
	var raw []Point
	cur := seed
	for {
		es[cur].used = true
		raw = append(raw, es[cur].from)
		next := -1
		cand := starts[es[cur].to]
		if len(cand) == 1 {
			if !es[cand[0]].used {
				next = cand[0]
			}
		} else {
			// Pick the unused outgoing edge turning most CCW relative to the
			// incoming direction. Rectilinear edges: score left turn best,
			// straight next, right turn last. U-turns cannot occur.
			inDx := signI64(es[cur].to.X - es[cur].from.X)
			inDy := signI64(es[cur].to.Y - es[cur].from.Y)
			bestScore := -1
			for _, ci := range cand {
				if es[ci].used {
					continue
				}
				oDx := signI64(es[ci].to.X - es[ci].from.X)
				oDy := signI64(es[ci].to.Y - es[ci].from.Y)
				cross := inDx*oDy - inDy*oDx
				var score int
				switch {
				case cross > 0:
					score = 3 // left turn
				case cross == 0 && (oDx != -inDx || oDy != -inDy):
					score = 2 // straight
				default:
					score = 1
				}
				if score > bestScore {
					bestScore = score
					next = ci
				}
			}
		}
		if next < 0 {
			break
		}
		cur = next
		if cur == seed {
			break
		}
	}
	return canonicalRing(raw)
}

// canonicalRing merges collinear vertices and rotates the ring to start at the
// lexicographically smallest point.
func canonicalRing(raw []Point) Ring {
	n := len(raw)
	ring := make(Ring, 0, n)
	for i := 0; i < n; i++ {
		prev := raw[(i+n-1)%n]
		cur := raw[i]
		next := raw[(i+1)%n]
		if (prev.X == cur.X && cur.X == next.X) || (prev.Y == cur.Y && cur.Y == next.Y) {
			continue // collinear; drop
		}
		ring = append(ring, cur)
	}
	if len(ring) == 0 {
		return ring
	}
	best := 0
	for i, p := range ring {
		b := ring[best]
		if p.X < b.X || (p.X == b.X && p.Y < b.Y) {
			best = i
		}
	}
	out := make(Ring, 0, len(ring))
	out = append(out, ring[best:]...)
	out = append(out, ring[:best]...)
	return out
}

// UnionArea returns the total area covered by the union of rects.
func UnionArea(rects []Rect) int64 {
	g := buildGrid(rects)
	if g.cov == nil {
		return 0
	}
	var a int64
	nx := g.nx()
	for j := 0; j < g.ny(); j++ {
		for i := 0; i < nx; i++ {
			if g.at(i, j) {
				a += (g.xs[i+1] - g.xs[i]) * (g.ys[j+1] - g.ys[j])
			}
		}
	}
	return a
}

// MaxRects enumerates all maximal rectangles contained in the union of rects:
// every rectangle fully covered by the union that cannot be extended in any of
// the four directions while remaining covered. This matches the paper's
// "maximum rectangles of the polygon(s)" used for shape-center coordinates.
// Results are sorted by (XL, YL, XH, YH).
func MaxRects(rects []Rect) []Rect {
	var s MaxRectsScratch
	return s.MaxRects(rects)
}

// MaxRectsScratch pools the buffers MaxRects needs, so a caller that takes
// the maximal rectangles of many shape sets allocates only while they grow.
type MaxRectsScratch struct {
	g   grid
	all []bool
	out []Rect
}

// MaxRects is the package-level MaxRects on s's buffers. The result aliases
// s and is valid until the next call.
func (s *MaxRectsScratch) MaxRects(rects []Rect) []Rect {
	g := &s.g
	if !g.build(rects) {
		return nil
	}
	nx, ny := g.nx(), g.ny()
	out := s.out[:0]
	s.all = slices.Grow(s.all[:0], nx)[:nx]
	all := s.all // all[i]: columns i covered for rows jlo..jhi
	for jlo := 0; jlo < ny; jlo++ {
		for i := 0; i < nx; i++ {
			all[i] = g.at(i, jlo)
		}
		for jhi := jlo; jhi < ny; jhi++ {
			if jhi > jlo {
				for i := 0; i < nx; i++ {
					all[i] = all[i] && g.at(i, jhi)
				}
			}
			// Maximal horizontal runs of all[].
			for i := 0; i < nx; {
				if !all[i] {
					i++
					continue
				}
				lo := i
				for i < nx && all[i] {
					i++
				}
				hi := i - 1 // run covers columns lo..hi
				// Vertical maximality: extending one row down or up must break
				// coverage somewhere in the run.
				extDown := jlo > 0
				if extDown {
					for c := lo; c <= hi; c++ {
						if !g.at(c, jlo-1) {
							extDown = false
							break
						}
					}
				}
				extUp := jhi < ny-1
				if extUp {
					for c := lo; c <= hi; c++ {
						if !g.at(c, jhi+1) {
							extUp = false
							break
						}
					}
				}
				if !extDown && !extUp {
					out = append(out, Rect{g.xs[lo], g.ys[jlo], g.xs[hi+1], g.ys[jhi+1]})
				}
			}
		}
	}
	slices.SortFunc(out, func(ra, rb Rect) int {
		if c := cmp.Compare(ra.XL, rb.XL); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.YL, rb.YL); c != 0 {
			return c
		}
		if c := cmp.Compare(ra.XH, rb.XH); c != 0 {
			return c
		}
		return cmp.Compare(ra.YH, rb.YH)
	})
	s.out = out
	// Drop duplicates (the same rect can surface from multiple row pairs).
	return slices.Compact(out)
}

// CoversPt reports whether the union of rects contains p (closed sets).
func CoversPt(rects []Rect, p Point) bool {
	for _, r := range rects {
		if r.ContainsPt(p) {
			return true
		}
	}
	return false
}

func signI64(v int64) int64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// RingSlices decomposes a simple rectilinear ring (either orientation) into
// disjoint covering rectangles by horizontal slab slicing. Errors on rings
// with odd crossing structure (self-intersection or non-rectilinear edges).
func RingSlices(ring Ring) ([]Rect, error) {
	n := len(ring)
	if n < 4 {
		return nil, errRingTooSmall
	}
	var ys []int64
	for i := 0; i < n; i++ {
		a, b := ring[i], ring[(i+1)%n]
		if a.X != b.X && a.Y != b.Y {
			return nil, errRingNotRectilinear
		}
		ys = append(ys, a.Y)
	}
	ys = dedupSorted(ys)
	var out []Rect
	for s := 0; s+1 < len(ys); s++ {
		lo, hi := ys[s], ys[s+1]
		// Work in doubled coordinates so the slab midline never coincides
		// with a vertex y (slab heights can be odd).
		mid2 := lo + hi
		var xs []int64
		for i := 0; i < n; i++ {
			a, b := ring[i], ring[(i+1)%n]
			if a.X != b.X {
				continue // horizontal edge
			}
			y1, y2 := a.Y, b.Y
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			if 2*y1 < mid2 && mid2 < 2*y2 {
				xs = append(xs, a.X)
			}
		}
		if len(xs)%2 != 0 {
			return nil, errRingCrossing
		}
		xs = dedupSorted(xs)
		if len(xs)%2 != 0 {
			return nil, errRingCrossing
		}
		for i := 0; i+1 < len(xs); i += 2 {
			out = append(out, R(xs[i], lo, xs[i+1], hi))
		}
	}
	return out, nil
}

// Sentinel errors for RingSlices.
var (
	errRingTooSmall       = ringError("ring has fewer than 4 vertices")
	errRingNotRectilinear = ringError("ring has a non-rectilinear edge")
	errRingCrossing       = ringError("ring has inconsistent edge crossings")
)

type ringError string

func (e ringError) Error() string { return "geom: " + string(e) }
