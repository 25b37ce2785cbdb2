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
	"sync/atomic"

	"repro/internal/geom"
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

// Obj is one rectangle known to the engine. Metal shapes set MetalLayer to
// the 1-based metal number; via cuts set CutBelow to the cut layer's metal
// number and leave MetalLayer zero.
type Obj struct {
	ID         int
	Kind       Kind
	MetalLayer int
	CutBelow   int
	Rect       geom.Rect
	Net        int
	Tag        string
}

func (o *Obj) describe() string {
	if o.Tag != "" {
		return o.Tag
	}
	return fmt.Sprintf("%s(net %d)", o.Kind, o.Net)
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

// Counters aggregates the engine's instrumentation: region-query volume,
// checks executed per rule family, via drops attempted vs clean, and
// violations found (pre-dedup). All fields are atomic, so concurrent readers
// (QueryCtx checks, CheckAllParallel workers) may share one instance, and
// several engines may point at the same Counters to aggregate across
// contexts — the pao analyzer shares one across its per-cell engines and the
// global engine.
type Counters struct {
	Queries       atomic.Int64 // region queries executed
	QueryObjects  atomic.Int64 // objects returned by region queries
	MetalChecks   atomic.Int64 // hypothetical-metal short/spacing checks
	CutChecks     atomic.Int64 // hypothetical-cut spacing checks
	EOLChecks     atomic.Int64 // end-of-line window checks
	MinStepChecks atomic.Int64 // min-step union checks (via enclosures)
	PairChecks    atomic.Int64 // full-design pairwise checks (CheckAll)
	ViaChecks     atomic.Int64 // via drops attempted
	ViaClean      atomic.Int64 // via drops that validated clean
	Violations    atomic.Int64 // violations found (pre-dedup)

	// Via-verdict cache instrumentation (see ViaCache): lookups answered from
	// the cache, and lookups that ran the full check.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
}

// Snapshot exports the counters under their canonical metric names.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	return map[string]int64{
		"drc.query.count":   c.Queries.Load(),
		"drc.query.objects": c.QueryObjects.Load(),
		"drc.check.metal":   c.MetalChecks.Load(),
		"drc.check.cut":     c.CutChecks.Load(),
		"drc.check.eol":     c.EOLChecks.Load(),
		"drc.check.minstep": c.MinStepChecks.Load(),
		"drc.check.pair":    c.PairChecks.Load(),
		"drc.via.attempted": c.ViaChecks.Load(),
		"drc.via.clean":     c.ViaClean.Load(),
		"drc.violations":    c.Violations.Load(),
		"drc.viacache.hit":  c.CacheHits.Load(),
		"drc.viacache.miss": c.CacheMisses.Load(),
	}
}

// Engine indexes design shapes per layer and runs rule checks against them.
type Engine struct {
	Tech *tech.Technology

	// Counters receives the engine's instrumentation. Always non-nil after
	// NewEngine; reassign it to share one accumulator across engines.
	Counters *Counters

	// FaultHook, when set, is invoked at the start of every via check with
	// the site name (SiteCheckVia); any violations it returns are appended
	// to the check's result. It exists for deterministic fault injection
	// (internal/faultinject) and stays nil in production. The hook must be
	// safe for concurrent callers when the engine is queried from several
	// goroutines.
	FaultHook func(site string) []Violation

	objs  []Obj
	alive []bool

	// Struct-of-arrays slabs mirroring objs for the query hot loop: clamped
	// int32 coordinates plus packed net / kind+saturation / layer columns
	// (see slab.go for the saturation contract).
	sxl, syl, sxh, syh []int32
	snet               []int32
	sinfo              []uint8 // Kind in the low bits, slabSat in the top bit
	slay               []int16 // +metal layer, -cut-below layer

	metal   []*binIndex // index 1..NumMetals
	cut     []*binIndex // index 1..NumMetals-1
	stamp   []int32     // per-object visit stamp for query dedup
	curPass int32

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
	e := &Engine{Tech: t, Counters: &Counters{}}
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
	}
	e.cut = make([]*binIndex, t.NumMetals())
	for i := 1; i < t.NumMetals(); i++ {
		e.cut[i] = newBinIndex(bin)
	}
	return e
}

// NumObjs returns the number of live objects.
func (e *Engine) NumObjs() int {
	n := 0
	for _, a := range e.alive {
		if a {
			n++
		}
	}
	return n
}

// ForEachObj calls fn for every live object in insertion order. The *Obj is
// valid only for the duration of the call.
func (e *Engine) ForEachObj(fn func(o *Obj)) {
	for id := range e.objs {
		if e.alive[id] {
			fn(&e.objs[id])
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

// ViaCacheAttached reports whether a via-verdict cache is installed.
func (e *Engine) ViaCacheAttached() bool { return e.cache != nil }

// Add registers a shape and returns its ID. IDs are handed out consecutively
// in insertion order and never reused (Remove only marks an ID dead).
func (e *Engine) Add(o Obj) int {
	o.ID = len(e.objs)
	e.objs = append(e.objs, o)
	e.alive = append(e.alive, true)
	e.stamp = append(e.stamp, 0)
	xl, yl, xh, yh, sat := clampRect(o.Rect)
	e.sxl = append(e.sxl, xl)
	e.syl = append(e.syl, yl)
	e.sxh = append(e.sxh, xh)
	e.syh = append(e.syh, yh)
	e.snet = append(e.snet, int32(o.Net))
	info := uint8(o.Kind) & slabKindMask
	if sat {
		info |= slabSat
	}
	e.sinfo = append(e.sinfo, info)
	switch {
	case o.CutBelow > 0:
		e.slay = append(e.slay, -int16(o.CutBelow))
		idx := e.cut[o.CutBelow]
		idx.insert(int32(o.ID), o.Rect)
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	case o.MetalLayer > 0:
		e.slay = append(e.slay, int16(o.MetalLayer))
		idx := e.metal[o.MetalLayer]
		idx.insert(int32(o.ID), o.Rect)
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	default:
		e.slay = append(e.slay, 0)
	}
	return o.ID
}

// Grow reserves room for n more objects in every per-object column, so a
// caller that knows its shape count adds them without slice regrowth.
func (e *Engine) Grow(n int) {
	e.objs = slices.Grow(e.objs, n)
	e.alive = slices.Grow(e.alive, n)
	e.stamp = slices.Grow(e.stamp, n)
	e.sxl = slices.Grow(e.sxl, n)
	e.syl = slices.Grow(e.syl, n)
	e.sxh = slices.Grow(e.sxh, n)
	e.syh = slices.Grow(e.syh, n)
	e.snet = slices.Grow(e.snet, n)
	e.sinfo = slices.Grow(e.sinfo, n)
	e.slay = slices.Grow(e.slay, n)
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
	if id < 0 || id >= len(e.objs) || !e.alive[id] {
		return
	}
	o := &e.objs[id]
	e.alive[id] = false
	switch {
	case o.CutBelow > 0:
		idx := e.cut[o.CutBelow]
		idx.remove(int32(id), o.Rect)
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	case o.MetalLayer > 0:
		idx := e.metal[o.MetalLayer]
		idx.remove(int32(id), o.Rect)
		if idx.needsCompact() {
			e.compactIndex(idx)
		}
	}
}

// Obj returns the object with the given ID (valid until the next Add).
func (e *Engine) Obj(id int) *Obj { return &e.objs[id] }

// queryIdx gathers live object IDs from idx touching r, deduped, using the
// engine-owned stamp state (exclusive-use callers only).
func (e *Engine) queryIdx(idx *binIndex, r geom.Rect) []int {
	e.curPass++
	return e.queryIdxInto(idx, r, e.stamp, e.curPass, nil)
}

// QueryMetal returns IDs of live metal shapes on layer touching r.
func (e *Engine) QueryMetal(layer int, r geom.Rect) []int {
	if layer < 1 || layer >= len(e.metal) {
		return nil
	}
	return e.queryIdx(e.metal[layer], r)
}

// QueryCut returns IDs of live via cuts on cut layer cutBelow touching r.
func (e *Engine) QueryCut(cutBelow int, r geom.Rect) []int {
	if cutBelow < 1 || cutBelow >= len(e.cut) {
		return nil
	}
	return e.queryIdx(e.cut[cutBelow], r)
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

// queryIdxInto is the thread-safe query core: the caller owns the visit-stamp
// buffer (len >= len(objs) — the Ctx entry points grow it lazily) and the
// pass counter, so concurrent readers never share state. Candidates are
// filtered by a branch-light compare over the int32 coordinate slabs; only
// saturated rows (or a saturated query window) fall back to the exact int64
// geometry.
func (e *Engine) queryIdxInto(idx *binIndex, r geom.Rect, stamp []int32, pass int32, out []int) []int {
	if idx == nil {
		return out
	}
	before := len(out)
	qxl, qyl, qxh, qyh, qsat := clampRect(r)
	scan := func(cands []int32) {
		for _, id := range cands {
			if !e.alive[id] || stamp[id] == pass {
				continue
			}
			stamp[id] = pass
			if e.sxl[id] > qxh || qxl > e.sxh[id] || e.syl[id] > qyh || qyl > e.syh[id] {
				continue
			}
			if (qsat || e.sinfo[id]&slabSat != 0) && !e.objs[id].Rect.Touches(r) {
				continue
			}
			out = append(out, int(id))
		}
	}
	x0, y0, x1, y1 := idx.keyRange(r)
	dense := idx.runs != nil
	sparse := len(idx.over) > 0
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			if dense {
				cx, cy := int(x)-int(idx.gx0), int(y)-int(idx.gy0)
				if cx >= 0 && cx < int(idx.nx) && cy >= 0 && cy < int(idx.ny) {
					run := idx.runs[cy*int(idx.nx)+cx]
					scan(idx.ids[run.off : run.off+run.n])
				}
			}
			if sparse {
				scan(idx.over[[2]int32{x, y}])
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
// path allocates nothing after warm-up. Obtain with NewQueryCtx; shapes added
// afterwards are picked up lazily (the visit-stamp buffer grows on the next
// query through the context).
//
// A slice returned by QueryMetalCtx/QueryCutCtx is only valid until the next
// query through the same context. Every in-tree caller consumes the IDs
// before issuing another query; callers that need to keep results across
// queries must copy them.
type QueryCtx struct {
	stamp []int32
	pass  int32
	buf   []int      // reused query result buffer
	sig   []sigEntry // via-signature scratch (viacache.go)
	enc   []byte     // via-signature encode scratch

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

// ensure grows the stamp buffer to cover shapes added after the context was
// created. New entries stamp 0, which no in-use pass value equals (passes
// start at 1), so pending passes stay valid.
func (ctx *QueryCtx) ensure(e *Engine) {
	if n := len(e.objs); len(ctx.stamp) < n {
		ctx.stamp = append(ctx.stamp, make([]int32, n-len(ctx.stamp))...)
	}
}

// NewQueryCtx allocates query state sized for the engine's current objects.
func (e *Engine) NewQueryCtx() *QueryCtx {
	return &QueryCtx{stamp: make([]int32, len(e.objs))}
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
	ctx.ensure(e)
	ctx.pass++
	ctx.buf = e.queryIdxInto(e.metal[layer], r, ctx.stamp, ctx.pass, ctx.buf[:0])
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
	ctx.ensure(e)
	ctx.pass++
	ctx.buf = e.queryIdxInto(e.cut[cutBelow], r, ctx.stamp, ctx.pass, ctx.buf[:0])
	return ctx.buf
}
