package main

import (
	"runtime"
	"time"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/tech"
)

// analysisRows turns the traced analyses into per-layer rows: the median
// self time of each layer's span, the unattributed remainder of the analysis
// span as pao.other.s, and the ratios and counts of the first repetition.
func (r *run) analysisRows() {
	self := make(map[string][]float64)
	for _, root := range r.roots {
		for name, s := range r.tr.selfTimes(root) {
			self[name] = append(self[name], s)
		}
	}
	n := len(r.roots)
	r.set("pao.step12.s", "s", median(self["pao.step12"]), n)
	r.set("drc.engine.s", "s", median(self["drc.engine"]), n)
	r.set("pao.step3.s", "s", median(self["pao.step3"]), n)
	r.set("pao.failedpins.s", "s", median(self["pao.failedpins"]), n)
	r.set("pao.other.s", "s", median(self["analyze"]), n)
	r.set("pao.step12.alloc_mb", "MB", median(r.step12Alloc), n)

	c := r.ledger["analysis"][0]
	r.set("drc.query.count", "count", float64(c["drc.query.count"]), 1)
	r.set("drc.query.objects", "count", float64(c["drc.query.objects"]), 1)
	r.set("drc.via.attempted", "count", float64(c["drc.via.attempted"]), 1)
	r.set("drc.via.clean_ratio", "ratio", ratio(c["drc.via.clean"], c["drc.via.attempted"]), 1)
	viaLookups := c["drc.viacache.hit"] + c["drc.viacache.miss"]
	r.set("drc.viacache.lookups", "count", float64(viaLookups), 1)
	r.set("drc.viacache.hit_rate", "ratio", ratio(c["drc.viacache.hit"], viaLookups), 1)
	pairLookups := c["pao.paircache.hit"] + c["pao.paircache.miss"]
	r.set("pao.paircache.lookups", "count", float64(pairLookups), 1)
	r.set("pao.paircache.hit_rate", "ratio", ratio(c["pao.paircache.hit"], pairLookups), 1)
	r.set("result.aps", "count", float64(c["result.aps"]), 1)
	r.set("result.patterns", "count", float64(c["result.patterns"]), 1)
}

// designRows times the unique-instance partition on its own (RunContext and
// AnalyzeClasses run it inside Step 1/2) and records the class and cluster
// counts the per-class numbers rest on.
func (r *run) designRows(st *batchState) {
	var unique []float64
	for i := 0; i < 5; i++ {
		id := r.tr.do(0, "db.unique", func() { st.d.UniqueInstances() })
		unique = append(unique, r.tr.dur(id))
	}
	r.set("db.unique.s", "s", median(unique), len(unique))
	r.set("db.classes", "count", float64(len(st.sigs)), 1)
	r.set("db.clusters", "count", float64(len(st.d.Clusters())), 1)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// viaCall is one access point's primary via drop, replayed against the
// global engine.
type viaCall struct {
	v     *tech.ViaDef
	p     geom.Point
	net   int
	rects []geom.Rect // same-net pin shapes on the via's bottom layer
	win   geom.Rect   // region query window: bottom enclosure plus halo
}

// replayReps is how many passes each replay makes; the rows take the median.
const replayReps = 3

// replay splits Step 1's via validation three ways by replaying every access
// point's primary via from the reference result against the global engine:
// the region query alone, the uncached check core, and the verdict through a
// warm via cache. The cached verdict must agree with the check core on
// whether each drop is clean.
func (r *run) replay(st *batchState) {
	a := pao.NewAnalyzer(st.d, analysisConfig())
	eng := a.GlobalEngine()
	var calls []viaCall
	for _, ua := range st.ref.Unique {
		pivot := ua.UI.Pivot()
		for _, pa := range ua.Pins {
			net := a.NetOf(pivot, pa.Pin)
			for _, ap := range pa.APs {
				v := ap.Primary()
				if v == nil {
					continue
				}
				c := viaCall{v: v, p: ap.Pos, net: net}
				for _, s := range pivot.PinShapes(pa.Pin) {
					if s.Layer == v.CutBelow {
						c.rects = append(c.rects, s.Rect)
					}
				}
				halo := drc.SigHalo(st.d.Tech.Metal(v.CutBelow))
				c.win = v.BotRect(ap.Pos).Bloat(halo)
				calls = append(calls, c)
			}
		}
	}
	if len(calls) == 0 {
		r.problem("replay: reference result has no via access points")
		return
	}
	qc := eng.NewQueryCtx()
	clean := make([]bool, len(calls))
	pass := func(name string, fn func(i int, c *viaCall)) {
		var ns, allocs []float64
		for rep := 0; rep < replayReps; rep++ {
			var dt time.Duration
			md := measureMem(func() {
				t0 := time.Now()
				for i := range calls {
					fn(i, &calls[i])
				}
				dt = time.Since(t0)
			})
			ns = append(ns, float64(dt.Nanoseconds())/float64(len(calls)))
			allocs = append(allocs, float64(md.mallocs)/float64(len(calls)))
		}
		r.set(name+".ns", "ns", median(ns), replayReps*len(calls))
		r.set(name+".allocs", "count", median(allocs), replayReps*len(calls))
	}
	pass("drc.query", func(_ int, c *viaCall) { eng.QueryMetalCtx(c.v.CutBelow, c.win, qc) })
	pass("drc.checkvia", func(i int, c *viaCall) {
		clean[i] = len(eng.CheckViaCtx(c.v, c.p, c.net, c.rects, qc)) == 0
	})
	for i := range calls { // fill the cache before the timed verdict passes
		eng.CheckViaVerdictCtx(calls[i].v, calls[i].p, calls[i].net, calls[i].rects, qc)
	}
	mismatch := 0
	pass("drc.verdict", func(i int, c *viaCall) {
		if (eng.CheckViaVerdictCtx(c.v, c.p, c.net, c.rects, qc) == 0) != clean[i] {
			mismatch++
		}
	})
	r.op(mismatch == 0, "replay: %d cached verdicts disagree with the check core", mismatch)
	r.set("drc.replay.calls", "count", float64(len(calls)), 1)
}

// ecoMove builds a signature-changing single-instance move: x+70 flips the
// M2 track phase on every suite node.
func ecoMove(name string, at geom.Point, dx int64) pao.ECOOp {
	return pao.ECOOp{Kind: pao.ECOMove, Inst: name, To: geom.Pt(at.X+dx, at.Y)}
}

// ecoLayer times ECOSession.Begin and ECOTxn.Commit directly on the batch
// design: a seeded instance is shuttled out and home twice, and the result
// after each return must equal the reference again.
func (r *run) ecoLayer(st *batchState) {
	sess := pao.NewECOSession(st.a, st.res)
	inst := st.d.Instances[r.rng.Intn(len(st.d.Instances))]
	home := inst.Pos
	var begin, commit []float64
	for rep := 0; rep < 2; rep++ {
		for _, leg := range []struct {
			name string
			dx   int64
		}{{"eco.out", 70}, {"eco.home", 0}} {
			runtime.GC()
			op := ecoMove(inst.Name, home, leg.dx)
			id := r.tr.start(0, "pao.eco")
			b := r.tr.start(id, "pao.eco.begin")
			txn, err := sess.Begin([]pao.ECOOp{op})
			r.tr.end(b)
			if err != nil {
				r.tr.end(id)
				r.op(false, "ECO begin: %v", err)
				return
			}
			var rep *pao.ECOReport
			c := r.tr.start(id, "pao.eco.commit")
			_, rep = txn.Commit()
			r.tr.end(c)
			r.tr.end(id)
			begin = append(begin, r.tr.dur(b))
			commit = append(commit, r.tr.dur(c))
			r.record(leg.name, map[string]int64{
				"pao.eco.dirty_classes":  int64(rep.ReanalyzedClasses),
				"pao.eco.dirty_clusters": int64(rep.DirtyClusters),
				"pao.eco.affected":       int64(rep.AffectedInstances),
				"pao.eco.dirty_rects":    int64(rep.DirtyRects),
			})
		}
		r.checkResult(st, sess.Result(), nil, "ECO shuttle")
	}
	out := r.ledger["eco.out"][0]
	r.set("pao.eco.begin.s", "s", median(begin), len(begin))
	r.set("pao.eco.commit.s", "s", median(commit), len(commit))
	r.set("pao.eco.dirty_classes", "count", float64(out["pao.eco.dirty_classes"]), 1)
	r.set("pao.eco.dirty_clusters", "count", float64(out["pao.eco.dirty_clusters"]), 1)
}
