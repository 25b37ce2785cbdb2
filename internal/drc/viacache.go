package drc

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/tech"
)

// ViaCache memoizes via-drop verdicts (the number of violations a CheckVia
// would report) keyed by the via definition plus a canonicalized signature of
// the local geometry inside the DRC halo. Every rule CheckVia evaluates —
// metal spacing, end-of-line, cut spacing, min step — is translation
// invariant, so two drops whose environments agree after shifting the access
// point to the origin must produce identical verdicts. That makes the cache
// content-addressed: it can be shared across engines (the pao analyzer shares
// one across every per-cell context and the global engine) and a hit from a
// different unique-instance class is still exact.
//
// Content addressing also makes engine mutation free: a changed environment
// encodes to a new key, so an entry about geometry that no longer exists is
// never looked up again. Nothing is invalidated; the per-shard cap alone
// bounds memory.
//
// Fill is exactly-once per key (singleflight): concurrent workers that miss on
// the same key run the underlying check once and share the verdict, keeping
// the engine's check counters deterministic across worker schedules.
type ViaCache struct {
	shards [viaCacheShards]viaShard

	// tech pins the rule set the cached verdicts were computed under; set
	// atomically on first attach (engines are built concurrently by analysis
	// workers), engines over a different Technology refuse the cache.
	tech atomic.Pointer[tech.Technology]
}

const (
	viaCacheShards = 64
	// viaShardCap bounds each shard; an overflowing shard is reset wholesale
	// (the cache is a memo, not a store — losing entries only costs misses).
	// 64 shards x 4096 = 262,144 entries: about 15x the 17,103 that one
	// analysis of perfbench's batch_lowreuse fills (the most of its three
	// workloads), so in practice the reset only bounds a long-lived ECO
	// session. Keys average about 30 bytes.
	viaShardCap = 1 << 12
)

// viaShard maps each via definition to its signature-keyed entries, so a hit
// looks up the encoded signature bytes without building a key string.
type viaShard struct {
	mu sync.Mutex
	n  int // entries across every inner map
	m  map[*tech.ViaDef]map[string]*viaEntry
}

// viaEntry is a singleflight slot: the filling goroutine computes the verdict
// and releases wg; concurrent lookups of the same key wait instead of
// re-running the check.
type viaEntry struct {
	wg      sync.WaitGroup
	verdict int
	failed  bool // the fill panicked; waiters fall back to an uncached check
}

// NewViaCache creates an empty verdict cache.
func NewViaCache() *ViaCache {
	c := &ViaCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[*tech.ViaDef]map[string]*viaEntry)
	}
	return c
}

// Len returns the number of cached verdicts.
func (c *ViaCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

func (c *ViaCache) shard(sig []byte) *viaShard {
	// FNV-1a over the signature bytes; the via definition keys the inner map.
	h := uint64(14695981039346656037)
	for _, b := range sig {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &c.shards[h%viaCacheShards]
}

// entry returns the slot for (v, sig), creating it on a miss (found reports
// whether it already existed). Only a miss copies sig into a key string.
func (sh *viaShard) entry(v *tech.ViaDef, sig []byte) (ent *viaEntry, found bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vm := sh.m[v]
	if ent = vm[string(sig)]; ent != nil {
		return ent, true
	}
	if sh.n >= viaShardCap {
		sh.m = make(map[*tech.ViaDef]map[string]*viaEntry)
		sh.n = 0
		vm = nil
	}
	if vm == nil {
		vm = make(map[string]*viaEntry)
		sh.m[v] = vm
	}
	ent = &viaEntry{}
	ent.wg.Add(1)
	vm[string(sig)] = ent
	sh.n++
	return ent, false
}

// sigEntry is one canonicalized environment object: its index class, net
// relation flags, and its rectangle relative to the access point.
type sigEntry struct {
	cls   uint8 // 0 = metal below, 1 = metal above, 2 = cut, 3 = same-net rect
	flags uint8 // bit 0: same net as the candidate; bit 1: NoNet blockage
	r     geom.Rect
}

// SigHalo is the exported form of sigHalo: the halo distance that covers
// every query window a via check opens on the layer, and so the farthest any
// metal rule can fire. Incremental flows use it to bound how far an engine
// mutation can change a via verdict; the via-pair check skips a layer whose
// two shapes are at least this far apart. It walks the layer's spacing
// table; an engine computes its layers' halos once, in NewEngine, for the
// via signatures.
func SigHalo(l *tech.RoutingLayer) int64 { return sigHalo(l) }

// sigHalo returns the halo distance that covers every query window CheckVia
// opens on the layer: the metal rule reach plus the end-of-line window
// extents.
func sigHalo(l *tech.RoutingLayer) int64 {
	h := l.SpacingReach()
	if l.EOL.Enabled() {
		if l.EOL.EOLSpace > h {
			h = l.EOL.EOLSpace
		}
		if l.EOL.EOLWithin > h {
			h = l.EOL.EOLWithin
		}
	}
	return h
}

// viaSignature canonicalizes the local geometry a CheckVia of v at p through
// qc would see: every indexed object of qc's view touching the halo around
// the enclosures and cuts (relative to p, tagged with its net relation) plus
// the caller-provided same-net rects that join the min-step union. Identical
// signatures guarantee identical verdicts; the converse need not hold (a
// too-wide halo only costs hit rate, never correctness). A window inside
// qc's focus (see Focus) reads the gathered records instead of the index;
// the entries are sorted, so the bytes do not depend on which. The encoding
// aliases qc.enc and is valid until the next signature built through qc.
func (e *Engine) viaSignature(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, qc *QueryCtx) []byte {
	ents := qc.sig[:0]
	add := func(cls, flags uint8, r geom.Rect) {
		ents = append(ents, sigEntry{cls, flags, geom.R(r.XL-p.X, r.YL-p.Y, r.XH-p.X, r.YH-p.Y)})
	}
	ws, n := e.viaWindows(v, p)
	for _, w := range ws[:n] {
		if recs, ok := qc.focused(e, w.slot, w.win); ok {
			for i := range recs {
				if rc := &recs[i]; rc.r.Touches(w.win) {
					add(w.cls, sigFlags(w.cls, net, rc.net), rc.r)
				}
			}
			continue
		}
		qc.buf = e.queryIdxInto(e.all[w.slot], w.win, qc.skip, qc.buf[:0])
		for _, id := range qc.buf {
			add(w.cls, sigFlags(w.cls, net, e.objs[id].net), e.rect(id))
		}
	}
	for _, r := range sameNetRects {
		add(3, 0, r)
	}
	slices.SortFunc(ents, cmpSigEntry)
	qc.sig = ents

	buf := qc.enc[:0]
	for i := range ents {
		en := &ents[i]
		buf = append(buf, en.cls, en.flags)
		buf = binary.AppendVarint(buf, en.r.XL)
		buf = binary.AppendVarint(buf, en.r.YL)
		buf = binary.AppendVarint(buf, en.r.XH)
		buf = binary.AppendVarint(buf, en.r.YH)
	}
	qc.enc = buf
	return buf
}

// sigFlags is a signature entry's net relation to the candidate's net: on
// metal, bit 0 for the same net and bit 1 for a NoNet blockage. Cut spacing
// ignores nets (the coincident-cut exemption compares rects, which survives
// the shift to relative coordinates), so a cut entry carries none.
func sigFlags(cls uint8, net int, oNet int32) uint8 {
	var fl uint8
	if cls == 2 {
		return fl
	}
	if sameNet(net, int(oNet)) {
		fl |= 1
	}
	if oNet == NoNet {
		fl |= 2
	}
	return fl
}

// cmpSigEntry orders signature entries by class, rectangle, then flags.
func cmpSigEntry(a, b sigEntry) int {
	if c := cmp.Compare(a.cls, b.cls); c != 0 {
		return c
	}
	if c := cmp.Compare(a.r.XL, b.r.XL); c != 0 {
		return c
	}
	if c := cmp.Compare(a.r.YL, b.r.YL); c != 0 {
		return c
	}
	if c := cmp.Compare(a.r.XH, b.r.XH); c != 0 {
		return c
	}
	if c := cmp.Compare(a.r.YH, b.r.YH); c != 0 {
		return c
	}
	return cmp.Compare(a.flags, b.flags)
}

// CheckViaVerdict is CheckViaVerdictCtx without caller-owned query state (the
// verdict is computed uncached when qc is nil, so prefer the Ctx form on hot
// paths).
func (e *Engine) CheckViaVerdict(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect) int {
	return e.CheckViaVerdictCtx(v, p, net, sameNetRects, nil)
}

// CheckViaVerdictCtx returns the number of (deduplicated) violations dropping
// via v at p would cause — len(CheckViaCtx(...)) — answering from the
// attached ViaCache when the local-geometry signature was seen before. The
// full CheckVia/CheckViaCtx entry points never consult the cache, so
// violation reports (coordinates, notes) always come from a live check.
//
// The cache is bypassed when no cache is attached, when the caller supplies
// no QueryCtx (the signature scratch lives there), and when a FaultHook is
// installed (injected violations must not be memoized).
func (e *Engine) CheckViaVerdictCtx(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, qc *QueryCtx) int {
	verdict, _ := e.CheckViaVerdictProvCtx(v, p, net, sameNetRects, qc)
	return verdict
}

// CheckViaVerdictProvCtx is CheckViaVerdictCtx plus provenance: cached
// reports whether the verdict was answered from the ViaCache (true only on a
// hit against a previously filled entry — the filling call itself, bypasses,
// and failed-fill fallbacks all ran the check live). The explain path uses
// this to report where each per-AP verdict came from.
func (e *Engine) CheckViaVerdictProvCtx(v *tech.ViaDef, p geom.Point, net int, sameNetRects []geom.Rect, qc *QueryCtx) (verdict int, cached bool) {
	if qc == nil || e.FaultHook != nil {
		// No arena for the count core (or injected violations that only the
		// report path prepends): run the full report check.
		return len(e.CheckViaCtx(v, p, net, sameNetRects, qc)), false
	}
	if e.cache == nil {
		return e.checkViaVerdictCount(v, p, net, sameNetRects, qc), false
	}
	sig := e.viaSignature(v, p, net, sameNetRects, qc)
	ent, found := e.cache.shard(sig).entry(v, sig)
	if found {
		ent.wg.Wait()
		if !ent.failed {
			e.Counters.CacheHits.Add(1)
			return ent.verdict, true
		}
		return e.checkViaVerdictCount(v, p, net, sameNetRects, qc), false
	}
	e.Counters.CacheMisses.Add(1)
	defer func() {
		if r := recover(); r != nil {
			ent.failed = true
			ent.wg.Done()
			panic(r)
		}
	}()
	ent.verdict = e.checkViaVerdictCount(v, p, net, sameNetRects, qc)
	ent.wg.Done()
	return ent.verdict, false
}
