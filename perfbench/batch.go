package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/pao"
)

// parseReps is how many times a run parses the LEF/DEF bytes; setup_s takes
// the median.
const parseReps = 7

// batchState is what the batch phase hands to the serving phase.
type batchState struct {
	in     inputs
	d      *db.Design // the design every analysis runs on
	sigs   []string   // class signatures in design order
	ref    *pao.Result
	digest [32]byte
	// res and a are the last timed result and its analyzer.
	res      *pao.Result
	a        *pao.Analyzer
	parseS   float64
	parseCPU float64
	snapshot []byte
}

// digest hashes a result's snapshot encoding with the timing fields zeroed,
// so two results with the same analysis hash the same.
func digest(d *db.Design, res *pao.Result) ([32]byte, error) {
	cp := *res
	cp.Stats.Steps = pao.StepTimes{}
	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, analysisConfig(), &cp); err != nil {
		return [32]byte{}, fmt.Errorf("encode snapshot: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// runBatch parses the inputs, computes the reference result, then times
// analyses until the batch share of the budget is spent.
func (r *run) runBatch(in inputs) (*batchState, error) {
	st := &batchState{in: in}
	var parseS, parseCPU []float64
	for i := 0; i < parseReps; i++ {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		d, err := parse(in)
		parseS = append(parseS, seconds(time.Since(t0)))
		parseCPU = append(parseCPU, (processCPU() - c0).Seconds())
		if err != nil {
			return nil, err
		}
		if i == 0 {
			st.d = d
		}
	}
	st.parseS = median(parseS)
	st.parseCPU = median(parseCPU)
	for _, ui := range st.d.UniqueInstances() {
		st.sigs = append(st.sigs, ui.Signature())
	}
	if err := r.reference(st); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(time.Duration(float64(r.budget) * r.w.batchShare))
	var analyzeS, analyzeCPU, allocMB, gcCycles, gcPause, tracedS []float64
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if r.alternate {
			r.inject = ""
			if i%2 == 1 {
				r.inject = "pao.step3"
			}
		}
		runtime.GC()
		var res *pao.Result
		var a *pao.Analyzer
		var err error
		var dt time.Duration
		c0 := processCPU()
		md := measureMem(func() {
			t0 := time.Now()
			a = pao.NewAnalyzer(st.d, analysisConfig())
			if r.alternate {
				a.FaultHook = r.injectHook()
			}
			res, err = a.RunContext(context.Background())
			dt = time.Since(t0)
		})
		analyzeCPU = append(analyzeCPU, (processCPU() - c0).Seconds())
		r.checkResult(st, res, err, "RunContext")
		analyzeS = append(analyzeS, seconds(dt))
		allocMB = append(allocMB, md.allocMB)
		gcCycles = append(gcCycles, float64(md.gcCycles))
		gcPause = append(gcPause, md.pauseMS)
		st.res, st.a = res, a
		if r.trace {
			runtime.GC()
			tracedS = append(tracedS, r.tracedAnalyze(st))
		}
	}
	r.analyzeSamples = analyzeS
	r.analyzeS = median(analyzeS)
	if r.trace {
		r.set("parse.s", "s", st.parseS, len(parseS))
		r.set("go.gc.cycles", "count", median(gcCycles), len(gcCycles))
		r.set("go.gc.pause_ms", "ms", median(gcPause), len(gcPause))
		r.set("trace.overhead_s", "s", median(tracedS)-r.analyzeS, len(tracedS))
		r.set("analyze_s", "s", r.analyzeS, len(analyzeS))
	} else {
		r.set("analyze_cpu_s", "s", median(analyzeCPU), len(analyzeCPU))
		r.set("alloc_mb", "MB", median(allocMB), len(allocMB))
	}
	return st, nil
}

// reference computes the result every timed analysis must reproduce: caches
// off, one worker. Its access points must all be DRC-clean in their cells.
func (r *run) reference(st *batchState) error {
	a := pao.NewAnalyzer(st.d, referenceConfig())
	ref, err := a.RunContext(context.Background())
	if err != nil {
		return fmt.Errorf("reference analysis: %w", err)
	}
	if !ref.Health.OK() {
		return fmt.Errorf("reference analysis degraded: %s", ref.Health)
	}
	if n := a.CountDirtyAPs(ref); n != 0 {
		r.problem("reference has %d dirty access points", n)
	}
	st.ref = ref
	st.digest, err = digest(st.d, ref)
	return err
}

// checkResult counts one analysis as an operation: it must succeed and
// digest equal to the reference.
func (r *run) checkResult(st *batchState, res *pao.Result, err error, what string) {
	if err != nil {
		r.op(false, "%s: %v", what, err)
		return
	}
	got, err := digest(st.d, res)
	if err != nil {
		r.op(false, "%s: %v", what, err)
		return
	}
	r.op(got == st.digest, "%s result differs from the reference", what)
}

// injectHook is the self-test's slowdown for RunContext: Step 3 is the span
// from the first cluster's selection to the failed-pin recount, and the hook
// sleeps a fifth of it before the recount starts.
func (r *run) injectHook() func(site, detail string) {
	var start atomic.Int64
	return func(site, _ string) {
		switch site {
		case pao.SiteSelectCluster:
			start.CompareAndSwap(0, time.Now().UnixNano())
		case pao.SiteFailedPins:
			if r.inject == "pao.step3" {
				if t0 := start.Load(); t0 != 0 {
					time.Sleep(time.Duration(time.Now().UnixNano()-t0) / 5)
				}
			}
		}
	}
}

// tracedAnalyze composes the pipeline from its public calls, each in a span,
// checks that the composed result equals the reference, and records the exact
// counts. It returns the traced analysis time.
func (r *run) tracedAnalyze(st *batchState) float64 {
	tr := r.tr
	var (
		a    *pao.Analyzer
		res  *pao.Result
		eng  *drc.Engine
		err  error
		mem  memDelta
		step time.Duration
	)
	root := tr.start(0, "analyze")
	a = pao.NewAnalyzer(st.d, analysisConfig())
	mem = measureMem(func() {
		tr.do(root, "pao.step12", func() { res, err = a.AnalyzeClasses(context.Background(), st.sigs) })
	})
	if err != nil {
		tr.end(root)
		r.op(false, "AnalyzeClasses: %v", err)
		return tr.dur(root)
	}
	tr.do(root, "drc.engine", func() { eng = a.GlobalEngine() })
	tr.do(root, "pao.step3", func() {
		t0 := time.Now()
		a.SelectPatterns(res, eng)
		step = time.Since(t0)
		if r.inject == "pao.step3" {
			time.Sleep(step / 5)
		}
	})
	tr.do(root, "pao.failedpins", func() { a.CountFailedPins(res, eng) })
	tr.end(root)
	r.checkResult(st, res, nil, "traced composition")

	counts := a.LiveCounters()
	counts["db.classes"] = int64(len(res.Unique))
	counts["result.aps"] = int64(res.Stats.TotalAPs)
	counts["result.patterns"] = int64(res.Stats.PatternsBuilt)
	counts["result.pins"] = int64(res.Stats.TotalPins)
	counts["result.failed_pins"] = int64(res.Stats.FailedPins)
	r.record("analysis", counts)
	r.step12Alloc = append(r.step12Alloc, mem.allocMB)
	r.roots = append(r.roots, root)
	r.slowed = append(r.slowed, r.inject != "")
	return tr.dur(root)
}
