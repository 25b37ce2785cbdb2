// Package drc is the design rule check engine: a grid-binned region query
// over design shapes plus the rule checks pin access analysis and detailed
// routing need — metal spacing (PRL table), shorts, min step over rectilinear
// unions, end-of-line spacing, cut spacing, min width and min area. It plays
// the role of TritonRoute's DRC engine in the paper's flow ("we use an
// accurate DRC engine similar to the one used in [20]", Section III-A).
package drc

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// Kind classifies a shape's origin, for reporting.
type Kind uint8

const (
	KindPin Kind = iota
	KindObs
	KindWire
	KindViaEnc
	KindViaCut
	KindIOPin
)

var kindNames = [...]string{"pin", "obs", "wire", "viaEnc", "viaCut", "ioPin"}

func (k Kind) String() string { return kindNames[k] }

// NoNet marks shapes that belong to no net (obstructions, power rails).
// A NoNet shape conflicts with every net but never with another NoNet shape.
const NoNet = -1

// SiteCheckVia is the fault-hook site name for via checks (see
// Engine.FaultHook).
const SiteCheckVia = "drc.CheckVia"

// Obj is one rectangle known to the engine: what Add takes, and the value
// Engine.Obj and ForEachObj build from the engine's record. Metal shapes set
// MetalLayer to the 1-based metal number; via cuts set CutBelow to the cut
// layer's metal number and leave MetalLayer zero.
type Obj struct {
	ID         int
	Kind       Kind
	MetalLayer int
	CutBelow   int
	Rect       geom.Rect
	Net        int
	Tag        string
}

// obj is the engine's record of one shape (24 bytes). It holds no pointer,
// so the garbage collector never scans the object array. The rectangle is
// kept clamped into int32; a saturated record (one whose clamping moved a
// coordinate) keeps its exact rectangle in the engine's side table, and so
// does a tag. Every reader of the rectangle goes through Engine.rect.
type obj struct {
	xl, yl, xh, yh int32 // the rectangle, saturating-clamped into int32
	net            int32
	lay            int16 // +metal layer, -cut-below layer, 0 for an unindexed shape
	kind           Kind
	flags          uint8 // objAlive | objSat
}

const (
	objAlive uint8 = 1 << iota // not removed
	objSat                     // clamped: the exact rectangle is in Engine.sats
)

func (o *obj) alive() bool { return o.flags&objAlive != 0 }

// rect returns object id's exact rectangle.
func (e *Engine) rect(id int) geom.Rect {
	o := &e.objs[id]
	if o.flags&objSat != 0 {
		return e.sats[int32(id)]
	}
	return geom.Rect{XL: int64(o.xl), YL: int64(o.yl), XH: int64(o.xh), YH: int64(o.yh)}
}

// describe names object id in violation notes: its tag, or its kind and net.
func (e *Engine) describe(id int) string {
	if tag := e.tags[int32(id)]; tag != "" {
		return tag
	}
	o := &e.objs[id]
	return fmt.Sprintf("%s(net %d)", o.kind, o.net)
}

// Violation is one design rule violation.
type Violation struct {
	Rule  string // Short, Spacing, MinStep, EOL, CutSpacing, MinWidth, MinArea
	Layer string // layer name
	Where geom.Rect
	Note  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on %s at %v: %s", v.Rule, v.Layer, v.Where, v.Note)
}

// Key returns a dedup key that ignores the free-text note.
func (v Violation) Key() string {
	return fmt.Sprintf("%s|%s|%d,%d,%d,%d", v.Rule, v.Layer, v.Where.XL, v.Where.YL, v.Where.XH, v.Where.YH)
}

// vKey is the comparable dedup key of a violation: everything Key() encodes,
// without building strings. The two stay equivalent — Key() remains the wire
// form difftest and the oracle compare on.
type vKey struct {
	rule, layer string
	where       geom.Rect
}

func (v *Violation) key() vKey { return vKey{v.Rule, v.Layer, v.Where} }

// Dedup removes violations with duplicate keys, preserving order. The input
// slice is left untouched: the result is a fresh slice (callers routinely keep
// the original list for reporting, so rewriting its backing array in place —
// the old vs[:0] trick — would clobber it).
func Dedup(vs []Violation) []Violation {
	if len(vs) <= 1 {
		return vs
	}
	seen := make(map[vKey]struct{}, len(vs))
	out := make([]Violation, 0, len(vs))
	for i := range vs {
		k := vs[i].key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, vs[i])
		}
	}
	return out
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Counters is the engine's instrumentation: region-query volume, checks
// executed per rule family, via drops attempted vs clean, violations found
// (pre-dedup) and via-verdict cache traffic. Each field is a counter series
// of an obs registry (NewCounters), so every engine holding the same
// Counters counts into the same store, concurrently and race-free, and a
// scrape of that registry reads the counts live. The zero value counts
// nothing: obs counters are nil-safe.
type Counters struct {
	Queries       *obs.Counter // region queries executed
	QueryObjects  *obs.Counter // objects returned by region queries
	MetalChecks   *obs.Counter // hypothetical-metal short/spacing checks
	CutChecks     *obs.Counter // hypothetical-cut spacing checks
	EOLChecks     *obs.Counter // end-of-line window checks
	MinStepChecks *obs.Counter // min-step union checks (via enclosures)
	PairChecks    *obs.Counter // full-design pairwise checks (CheckAll)
	ViaChecks     *obs.Counter // via drops attempted
	ViaClean      *obs.Counter // via drops that validated clean
	Violations    *obs.Counter // violations found (pre-dedup)
	CacheHits     *obs.Counter // via verdicts answered from the ViaCache
	CacheMisses   *obs.Counter // via verdicts that ran the full check
}

// namedCounter is one Counters field with its registry name.
type namedCounter struct {
	name string
	ctr  **obs.Counter
}

// series lists every counter with its registry name.
func (c *Counters) series() [12]namedCounter {
	return [12]namedCounter{
		{"drc.query.count", &c.Queries},
		{"drc.query.objects", &c.QueryObjects},
		{"drc.check.metal", &c.MetalChecks},
		{"drc.check.cut", &c.CutChecks},
		{"drc.check.eol", &c.EOLChecks},
		{"drc.check.minstep", &c.MinStepChecks},
		{"drc.check.pair", &c.PairChecks},
		{"drc.via.attempted", &c.ViaChecks},
		{"drc.via.clean", &c.ViaClean},
		{"drc.violations", &c.Violations},
		{"drc.viacache.hit", &c.CacheHits},
		{"drc.viacache.miss", &c.CacheMisses},
	}
}

// NewCounters resolves the twelve drc.* counter series of reg, creating them
// on first use, so the registry reports every family even at zero. A nil reg
// gets a private registry: the counts are still kept, for Snapshot.
func NewCounters(reg *obs.Registry) Counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var c Counters
	for _, s := range c.series() {
		*s.ctr = reg.Counter(s.name)
	}
	return c
}

// Snapshot exports the counters under their registry names.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, 12)
	for _, s := range c.series() {
		out[s.name] = (*s.ctr).Load()
	}
	return out
}

// Engine indexes design shapes per layer and runs rule checks against them.
type Engine struct {
	Tech *tech.Technology

	// Counters receives the engine's instrumentation. NewEngine leaves it
	// zero, counting nothing; assign NewCounters' result to count.
	Counters Counters

	// FaultHook, when set, is invoked at the start of every via check with
	// the site name (SiteCheckVia); any violations it returns are appended
	// to the check's result. It exists for deterministic fault injection
	// (internal/faultinject) and stays nil in production. The hook must be
	// safe for concurrent callers when the engine is queried from several
	// goroutines.
	FaultHook func(site string) []Violation

	objs []obj
	tags map[int32]string    // object ID -> tag, for tagged objects only
	sats map[int32]geom.Rect // object ID -> exact rect, for saturated objects only

	metal []*binIndex // index 1..NumMetals
	cut   []*binIndex // index 1..NumMetals-1
	all   []*binIndex // every metal and cut index

	// bulk is set between Grow and Compact: Add then only appends the
	// record, and Compact hands the records from bulkFrom on to their
	// layers' indexes in one pass (see Grow).
	bulk     bool
	bulkFrom int

	// cache, when attached, memoizes via-drop verdicts (CheckViaVerdictCtx)
	// keyed by canonicalized local geometry.
	cache *ViaCache
}

// minBinSize floors the spatial-index bin size: a degenerate technology
// (zero or missing metal-1 pitch) must not produce a zero-sized bin, which
// would divide by zero on the first insert.
const minBinSize = 256

// NewEngine creates an empty engine for the given technology. Bin size is
// derived from the lower-metal pitch, floored at minBinSize for degenerate
// rule decks.
func NewEngine(t *tech.Technology) *Engine {
	e := &Engine{Tech: t}
	var bin int64
	if l := t.Metal(1); l != nil {
		bin = 24 * l.Pitch
	}
	if bin < minBinSize {
		bin = minBinSize
	}
	e.metal = make([]*binIndex, t.NumMetals()+1)
	for i := 1; i <= t.NumMetals(); i++ {
		e.metal[i] = newBinIndex(bin)
		e.all = append(e.all, e.metal[i])
	}
	e.cut = make([]*binIndex, t.NumMetals())
	for i := 1; i < t.NumMetals(); i++ {
		e.cut[i] = newBinIndex(bin)
		e.all = append(e.all, e.cut[i])
	}
	return e
}

// NumObjs returns the number of live objects.
func (e *Engine) NumObjs() int {
	n := 0
	for i := range e.objs {
		if e.objs[i].alive() {
			n++
		}
	}
	return n
}

// ForEachObj calls fn for every live object in insertion order.
func (e *Engine) ForEachObj(fn func(o Obj)) {
	for id := range e.objs {
		if e.objs[id].alive() {
			fn(e.Obj(id))
		}
	}
}

// AttachViaCache installs a via-verdict cache on the engine. The engine may
// be mutated afterwards: a changed environment encodes to a new key, so no
// verdict goes stale. One cache may be shared by several engines over the
// same Technology — verdicts are keyed by canonicalized local geometry, so a
// hit from another engine is still exact.
func (e *Engine) AttachViaCache(c *ViaCache) {
	if c != nil && !c.tech.CompareAndSwap(nil, e.Tech) && c.tech.Load() != e.Tech {
		// A cache keyed under different design rules would alias verdicts;
		// refuse silently rather than corrupt results.
		return
	}
	e.cache = c
}

// Add registers a shape and returns its ID. IDs are handed out consecutively
// in insertion order and never reused (Remove only marks an ID dead). Inside
// a bulk build (see Grow) the shape is only recorded; otherwise it is
// indexed at once.
func (e *Engine) Add(o Obj) int {
	id := len(e.objs)
	xl, yl, xh, yh, sat := clampRect(o.Rect)
	rec := obj{xl: xl, yl: yl, xh: xh, yh: yh, net: int32(o.Net), kind: o.Kind, flags: objAlive}
	switch {
	case o.CutBelow > 0:
		rec.lay = -int16(o.CutBelow)
	case o.MetalLayer > 0:
		rec.lay = int16(o.MetalLayer)
	}
	idx := e.index(rec.lay) // a layer the technology lacks panics before anything is recorded
	if sat {
		rec.flags |= objSat
		if e.sats == nil {
			e.sats = make(map[int32]geom.Rect)
		}
		e.sats[int32(id)] = o.Rect
	}
	e.objs = append(e.objs, rec)
	if o.Tag != "" {
		if e.tags == nil {
			e.tags = make(map[int32]string)
		}
		e.tags[int32(id)] = o.Tag
	}
	if idx != nil && !e.bulk {
		idx.insert(int32(id), o.Rect)
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	}
	return id
}

// index returns the bin index of a record's layer, nil for an unindexed one.
func (e *Engine) index(lay int16) *binIndex {
	switch {
	case lay < 0:
		return e.cut[-lay]
	case lay > 0:
		return e.metal[lay]
	}
	return nil
}

// Grow reserves room for n more objects and opens a bulk build: until the
// next Compact, Add only appends each shape's record, and Compact then
// indexes every shape added since Grow in one pass per layer instead of
// inserting them one by one. A caller that knows its shape count calls
// Grow, adds them and calls Compact before its first query; a query inside
// the bulk build panics, because the index does not hold its shapes yet.
func (e *Engine) Grow(n int) {
	e.objs = slices.Grow(e.objs, n)
	if !e.bulk {
		e.bulk, e.bulkFrom = true, len(e.objs)
	}
}

// Reset empties the engine for reuse, as NewEngine over the same Technology
// would return it with Counters kept: every object, tag, saturated rect,
// index entry, an open bulk build, the FaultHook and the attached via cache
// go. The record array, bin runs, id slabs and overflow lists keep their
// capacity, so a warm engine refilled with shapes like the ones it held
// allocates nothing. Reset restores a consistent empty engine from any
// state, including one a panic left in the middle of an Add, a bulk build,
// a Compact or a check. Like Add, it needs exclusive access; QueryCtx
// values created on the engine stay usable.
func (e *Engine) Reset() {
	e.FaultHook = nil
	e.cache = nil
	e.objs = e.objs[:0]
	clear(e.tags)
	clear(e.sats)
	e.bulk, e.bulkFrom = false, 0
	for _, idx := range e.all {
		idx.reset()
	}
}

// AddMetal is a convenience wrapper for metal shapes.
func (e *Engine) AddMetal(layer int, r geom.Rect, net int, kind Kind, tag string) int {
	return e.Add(Obj{Kind: kind, MetalLayer: layer, Rect: r, Net: net, Tag: tag})
}

// AddCut is a convenience wrapper for via cut shapes.
func (e *Engine) AddCut(cutBelow int, r geom.Rect, net int, tag string) int {
	return e.Add(Obj{Kind: KindViaCut, CutBelow: cutBelow, Rect: r, Net: net, Tag: tag})
}

// Remove deletes a previously added object.
func (e *Engine) Remove(id int) {
	if id < 0 || id >= len(e.objs) || !e.objs[id].alive() {
		return
	}
	o := &e.objs[id]
	o.flags &^= objAlive
	if e.bulk && id >= e.bulkFrom {
		return // not indexed yet: Compact skips dead records
	}
	if idx := e.index(o.lay); idx != nil {
		idx.remove(int32(id), e.rect(id))
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	}
}

// Obj returns the object with the given ID, built from the engine's record.
func (e *Engine) Obj(id int) Obj {
	o := &e.objs[id]
	out := Obj{ID: id, Kind: o.kind, Rect: e.rect(id), Net: int(o.net), Tag: e.tags[int32(id)]}
	if o.lay > 0 {
		out.MetalLayer = int(o.lay)
	} else {
		out.CutBelow = int(-o.lay)
	}
	return out
}

// QueryMetal returns IDs of live metal shapes on layer touching r, in a
// fresh slice.
func (e *Engine) QueryMetal(layer int, r geom.Rect) []int {
	if layer < 1 || layer >= len(e.metal) {
		return nil
	}
	return e.queryIdxInto(e.metal[layer], r, nil)
}

// QueryCut returns IDs of live via cuts on cut layer cutBelow touching r, in
// a fresh slice.
func (e *Engine) QueryCut(cutBelow int, r geom.Rect) []int {
	if cutBelow < 1 || cutBelow >= len(e.cut) {
		return nil
	}
	return e.queryIdxInto(e.cut[cutBelow], r, nil)
}

// sameNet reports whether two net IDs should be exempt from spacing/short
// checks against each other. NoNet shapes conflict with every net but not
// with each other (two blockages cannot violate).
func sameNet(a, b int) bool {
	if a == NoNet && b == NoNet {
		return true
	}
	return a == b && a != NoNet
}

// queryIdxInto is the query core. It writes nothing but out, so concurrent
// readers share the engine freely. It walks the window's cells x-major,
// each cell's dense run before its overflow list, and filters candidates by
// a branch-light compare of the records' int32 coordinates; only a
// saturated record (or a saturated window) falls back to the exact int64
// geometry.
//
// A shape that spans several cells is reported only from the cell holding
// the low corner of its overlap with the window. That is the first cell of
// the scan that lists the shape, so results come out in first-visit order
// with no per-object visit state, provided no cell list holds an ID twice
// (binIndex keeps each ID at most once per cell).
func (e *Engine) queryIdxInto(idx *binIndex, r geom.Rect, out []int) []int {
	if idx == nil {
		return out
	}
	if e.bulk {
		panic("drc: query inside a bulk build (Grow without Compact)")
	}
	before := len(out)
	qxl, qyl, qxh, qyh, qsat := clampRect(r)
	x0, y0, x1, y1 := idx.keyRange(r)
	objs := e.objs
	scan := func(cands []int32, x, y int32) {
		// Report a shape only from the cell that holds its overlap's low
		// corner: in x, the window's first column or the column the shape
		// starts in; the same in y.
		cxl, cyl := int64(x)*idx.size, int64(y)*idx.size
		firstX, firstY := x == x0, y == y0
		for _, id := range cands {
			o := &objs[id]
			if o.flags&objAlive == 0 || o.xl > qxh || qxl > o.xh || o.yl > qyh || qyl > o.yh {
				continue
			}
			if qsat || o.flags&objSat != 0 {
				// Exact geometry, and the low corner test on the bin keys
				// the index filed the shape under.
				or := e.rect(int(id))
				if !or.Touches(r) {
					continue
				}
				ox0, oy0, _, _ := idx.keyRange(or)
				if x != max(x0, ox0) || y != max(y0, oy0) {
					continue
				}
			} else if (!firstX && int64(o.xl) < cxl) || (!firstY && int64(o.yl) < cyl) {
				continue
			}
			out = append(out, int(id))
		}
	}
	dense := idx.nx > 0
	sparse := len(idx.over) > 0
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			if dense {
				cx, cy := int(x)-int(idx.gx0), int(y)-int(idx.gy0)
				if cx >= 0 && cx < int(idx.nx) && cy >= 0 && cy < int(idx.ny) {
					run := idx.runs[cy*int(idx.nx)+cx]
					scan(idx.ids[run.off:run.off+run.n], x, y)
				}
			}
			if sparse {
				if s, ok := idx.over[[2]int32{x, y}]; ok {
					scan(idx.cells[s], x, y)
				}
			}
		}
	}
	e.Counters.Queries.Add(1)
	e.Counters.QueryObjects.Add(int64(len(out) - before))
	return out
}

// QueryCtx carries per-goroutine query state so read-only checks can run
// concurrently against one engine, and doubles as the check cores' scratch
// arena: every per-check buffer (query results, violation accumulation,
// dedup keys, min-step union geometry) lives here, so the count-only verdict
// path allocates nothing after warm-up. Obtain with NewQueryCtx; its size
// does not depend on the engine's, and shapes added afterwards need nothing
// from it.
//
// A slice returned by QueryMetalCtx/QueryCutCtx is only valid until the next
// query through the same context. Every in-tree caller consumes the IDs
// before issuing another query; callers that need to keep results across
// queries must copy them.
type QueryCtx struct {
	buf []int      // reused query result buffer
	sig []sigEntry // via-signature scratch (viacache.go)
	enc []byte     // via-signature encode scratch

	// Check-core arenas (see checks.go): violation accumulation for the
	// count-only verdict path, dedup keys, connected-component rects, ring
	// step flags and the rectilinear-union scratch.
	viol  []Violation
	keys  []vKey
	rects []geom.Rect
	used  []bool
	steps []bool
	union geom.UnionScratch
}

// NewQueryCtx returns empty query state; its buffers grow on first use.
func (e *Engine) NewQueryCtx() *QueryCtx {
	return &QueryCtx{}
}

// QueryMetalCtx is QueryMetal with caller-owned state (safe for concurrent
// use with other contexts; the engine must not be mutated meanwhile). The
// result aliases the context's pooled buffer — valid until the next query.
func (e *Engine) QueryMetalCtx(layer int, r geom.Rect, ctx *QueryCtx) []int {
	if ctx == nil {
		return e.QueryMetal(layer, r)
	}
	if layer < 1 || layer >= len(e.metal) {
		return nil
	}
	ctx.buf = e.queryIdxInto(e.metal[layer], r, ctx.buf[:0])
	return ctx.buf
}

// QueryCutCtx is QueryCut with caller-owned state. The result aliases the
// context's pooled buffer — valid until the next query.
func (e *Engine) QueryCutCtx(cutBelow int, r geom.Rect, ctx *QueryCtx) []int {
	if ctx == nil {
		return e.QueryCut(cutBelow, r)
	}
	if cutBelow < 1 || cutBelow >= len(e.cut) {
		return nil
	}
	ctx.buf = e.queryIdxInto(e.cut[cutBelow], r, ctx.buf[:0])
	return ctx.buf
}
