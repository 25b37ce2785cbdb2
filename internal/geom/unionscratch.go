package geom

import "sort"

// UnionScratch pools every buffer a rectilinear union needs — the compressed
// grid, the component labels, the boundary edges and the ring vertex storage —
// so repeated unions (the DRC engine runs one per via min-step check) allocate
// nothing after warm-up.
//
// The returned polygons and every ring they reference alias the scratch: they
// are valid only until the next Union call on the same scratch. Callers that
// keep results across calls must copy them. UnionRects is a separate,
// map-based union that returns caller-owned results; it is the reference
// TestUnionScratchMatchesUnionRects and the oracle use.
type UnionScratch struct {
	xs, ys []int64
	cov    []bool
	comp   []int32
	stack  []int32
	eoff   []int32 // per-component edge offsets (len ncomp+1)
	ecur   []int32 // per-component fill cursors
	edges  []dirEdge
	raw    []Point // ring trace scratch
	merged []Point // collinear-merge scratch
	pts    []Point // arena backing canonical ring vertices
	rings  []Ring
	ringc  []int32 // component id per traced ring
	holes  []Ring  // arena backing per-polygon hole lists
	polys  []Polygon
}

// Union computes the union of rects as disjoint rectilinear polygons with
// holes, identically to UnionRects, reusing the scratch's buffers. See the
// type comment for the aliasing contract.
func (s *UnionScratch) Union(rects []Rect) []Polygon {
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		s.xs = append(s.xs, r.XL, r.XH)
		s.ys = append(s.ys, r.YL, r.YH)
	}
	s.xs = dedupSorted(s.xs)
	s.ys = dedupSorted(s.ys)
	if len(s.xs) < 2 || len(s.ys) < 2 {
		return nil
	}
	nx, ny := len(s.xs)-1, len(s.ys)-1
	ncell := nx * ny
	s.cov = growBools(s.cov, ncell)
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		i0 := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] >= r.XL })
		i1 := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] >= r.XH })
		j0 := sort.Search(len(s.ys), func(j int) bool { return s.ys[j] >= r.YL })
		j1 := sort.Search(len(s.ys), func(j int) bool { return s.ys[j] >= r.YH })
		for j := j0; j < j1; j++ {
			row := s.cov[j*nx : (j+1)*nx]
			for i := i0; i < i1; i++ {
				row[i] = true
			}
		}
	}

	// 4-connected component labels.
	s.comp = growI32(s.comp, ncell)
	for i := range s.comp {
		s.comp[i] = -1
	}
	ncomp := int32(0)
	stack := s.stack[:0]
	for start := range s.cov {
		if !s.cov[start] || s.comp[start] >= 0 {
			continue
		}
		id := ncomp
		ncomp++
		stack = append(stack[:0], int32(start))
		s.comp[start] = id
		for len(stack) > 0 {
			c := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			i, j := c%nx, c/nx
			for _, nb := range [4][2]int{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
				ni, nj := nb[0], nb[1]
				if ni < 0 || nj < 0 || ni >= nx || nj >= ny {
					continue
				}
				nc := nj*nx + ni
				if s.cov[nc] && s.comp[nc] < 0 {
					s.comp[nc] = id
					stack = append(stack, int32(nc))
				}
			}
		}
	}
	s.stack = stack

	covAt := func(i, j int) bool {
		if i < 0 || j < 0 || i >= nx || j >= ny {
			return false
		}
		return s.cov[j*nx+i]
	}
	// Count boundary edges per component, then place them grouped by
	// component in the same per-component order the map-based emission used
	// (row-major cells; bottom, top, left, right per cell) — the stitching
	// below depends on that order for determinism.
	s.eoff = growI32(s.eoff, int(ncomp)+1)
	for i := range s.eoff {
		s.eoff[i] = 0
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if !s.cov[j*nx+i] {
				continue
			}
			c := s.comp[j*nx+i]
			n := int32(0)
			if !covAt(i, j-1) {
				n++
			}
			if !covAt(i, j+1) {
				n++
			}
			if !covAt(i-1, j) {
				n++
			}
			if !covAt(i+1, j) {
				n++
			}
			s.eoff[c+1] += n
		}
	}
	for c := int32(0); c < ncomp; c++ {
		s.eoff[c+1] += s.eoff[c]
	}
	total := int(s.eoff[ncomp])
	s.edges = growEdges(s.edges, total)
	s.ecur = growI32(s.ecur, int(ncomp))
	copy(s.ecur, s.eoff[:ncomp])
	put := func(c int32, from, to Point) {
		s.edges[s.ecur[c]] = dirEdge{from: from, to: to}
		s.ecur[c]++
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if !s.cov[j*nx+i] {
				continue
			}
			c := s.comp[j*nx+i]
			x0, x1 := s.xs[i], s.xs[i+1]
			y0, y1 := s.ys[j], s.ys[j+1]
			if !covAt(i, j-1) { // bottom: travel +x, interior above (left)
				put(c, Pt(x0, y0), Pt(x1, y0))
			}
			if !covAt(i, j+1) { // top: travel -x
				put(c, Pt(x1, y1), Pt(x0, y1))
			}
			if !covAt(i-1, j) { // left: travel -y
				put(c, Pt(x0, y1), Pt(x0, y0))
			}
			if !covAt(i+1, j) { // right: travel +y
				put(c, Pt(x1, y0), Pt(x1, y1))
			}
		}
	}

	// Trace rings per component. The vertex arena is reserved up front (one
	// canonical vertex consumes at least one edge) so ring views never move.
	s.pts = growPoints(s.pts, total)
	s.rings = s.rings[:0]
	s.ringc = s.ringc[:0]
	for c := int32(0); c < ncomp; c++ {
		es := s.edges[s.eoff[c]:s.eoff[c+1]]
		for seed := range es {
			if es[seed].used {
				continue
			}
			s.rings = append(s.rings, s.traceRing(es, seed))
			s.ringc = append(s.ringc, c)
		}
	}

	s.polys = growPolys(s.polys, int(ncomp))
	s.holes = growRings(s.holes, len(s.rings))
	for idx := 0; idx < len(s.rings); {
		c := s.ringc[idx]
		start := len(s.holes)
		for ; idx < len(s.rings) && s.ringc[idx] == c; idx++ {
			if s.rings[idx].SignedArea2() > 0 {
				s.polys[c].Outer = s.rings[idx]
			} else {
				s.holes = append(s.holes, s.rings[idx])
			}
		}
		if len(s.holes) > start {
			s.polys[c].Holes = s.holes[start:len(s.holes):len(s.holes)]
		}
	}
	return s.polys
}

// traceRing walks directed edges starting at seed, always taking the most
// counterclockwise available turn (the map-based stitching's rule; a linear
// scan over the component's edges visits candidates in the same emission
// order, so the same edge wins every tie).
func (s *UnionScratch) traceRing(es []dirEdge, seed int) Ring {
	raw := s.raw[:0]
	cur := seed
	for {
		es[cur].used = true
		raw = append(raw, es[cur].from)
		to := es[cur].to
		inDx := signI64(to.X - es[cur].from.X)
		inDy := signI64(to.Y - es[cur].from.Y)
		next, bestScore := -1, -1
		for ci := range es {
			if es[ci].used || es[ci].from != to {
				continue
			}
			oDx := signI64(es[ci].to.X - to.X)
			oDy := signI64(es[ci].to.Y - to.Y)
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
		if next < 0 {
			break
		}
		cur = next
	}
	s.raw = raw
	return s.canonicalRing(raw)
}

// canonicalRing merges collinear vertices and rotates the ring to start at
// the lexicographically smallest point, storing the result in the vertex
// arena (pre-reserved by Union, so the append never reallocates).
func (s *UnionScratch) canonicalRing(raw []Point) Ring {
	n := len(raw)
	merged := s.merged[:0]
	for i := 0; i < n; i++ {
		prev := raw[(i+n-1)%n]
		cur := raw[i]
		next := raw[(i+1)%n]
		if (prev.X == cur.X && cur.X == next.X) || (prev.Y == cur.Y && cur.Y == next.Y) {
			continue // collinear; drop
		}
		merged = append(merged, cur)
	}
	s.merged = merged
	if len(merged) == 0 {
		return nil
	}
	best := 0
	for i, p := range merged {
		b := merged[best]
		if p.X < b.X || (p.X == b.X && p.Y < b.Y) {
			best = i
		}
	}
	start := len(s.pts)
	s.pts = append(s.pts, merged[best:]...)
	s.pts = append(s.pts, merged[:best]...)
	return Ring(s.pts[start:len(s.pts):len(s.pts)])
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

func growEdges(buf []dirEdge, n int) []dirEdge {
	if cap(buf) < n {
		return make([]dirEdge, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = dirEdge{}
	}
	return buf
}

func growPoints(buf []Point, capNeed int) []Point {
	if cap(buf) < capNeed {
		return make([]Point, 0, capNeed)
	}
	return buf[:0]
}

func growRings(buf []Ring, capNeed int) []Ring {
	if cap(buf) < capNeed {
		return make([]Ring, 0, capNeed)
	}
	return buf[:0]
}

func growPolys(buf []Polygon, n int) []Polygon {
	if cap(buf) < n {
		return make([]Polygon, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = Polygon{}
	}
	return buf
}
