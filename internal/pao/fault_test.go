package pao_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/suite"
)

func faultDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// formatUA serializes one class's full analysis result — ordered pins, every
// access point with vias, every pattern — for byte-level comparison.
func formatUA(ua *pao.UniqueAccess) string {
	var b strings.Builder
	for _, pa := range ua.Pins {
		fmt.Fprintf(&b, "pin %s:", pa.Pin.Name)
		for _, ap := range pa.APs {
			via := "-"
			if v := ap.Primary(); v != nil {
				via = v.Name
			}
			fmt.Fprintf(&b, " %v/%s", ap, via)
		}
		b.WriteByte('\n')
	}
	for _, p := range ua.Patterns {
		fmt.Fprintf(&b, "pattern %v cost=%d\n", p.Choice, p.Cost)
	}
	return b.String()
}

// uaBySig maps class signature to its serialized analysis.
func uaBySig(res *pao.Result) map[string]string {
	out := make(map[string]string, len(res.Unique))
	for _, ua := range res.Unique {
		out[ua.UI.Signature()] = formatUA(ua)
	}
	return out
}

// TestFaultPanicsQuarantineClasses is the headline acceptance test: K panics
// injected into K distinct unique-instance classes yield exactly K failed
// classes, every surviving class byte-identical to a clean run, and the
// process never crashes. The panics fire before a class starts or, in the
// mid-class case, from inside its second via check: with one worker every
// later class then refills the scratch cell engine and query context the
// panic left mid-query.
func TestFaultPanicsQuarantineClasses(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workers  int
		midClass bool
	}{{"workers=1", 1, false}, {"workers=4", 4, false}, {"workers=1,mid-class", 1, true}} {
		workers := tc.workers
		t.Run(tc.name, func(t *testing.T) {
			d := faultDesign(t)
			cfg := pao.DefaultConfig()
			cfg.Workers = workers
			clean := pao.NewAnalyzer(d, cfg).Run()
			if len(clean.Unique) < 5 {
				t.Fatalf("testcase too small: %d classes", len(clean.Unique))
			}
			// Target the first K classes by signature — detail-scoped faults
			// hit the same classes regardless of worker scheduling.
			var targets []string
			for _, ua := range clean.Unique[:3] {
				targets = append(targets, ua.UI.Signature())
			}
			sort.Strings(targets)

			in := faultinject.New()
			for _, sig := range targets {
				f := &faultinject.Fault{
					Site: pao.SiteAnalyzeUnique, Detail: sig,
					Kind: faultinject.Panic, Note: "quarantine " + sig,
				}
				if tc.midClass {
					f.Site, f.Call = drc.SiteCheckVia, 2
				}
				in.Add(f)
			}
			a := pao.NewAnalyzer(faultDesign(t), cfg)
			a.FaultHook = in.SiteHook()
			if tc.midClass {
				a.DRCFaultHook = in.DRCHook()
			}
			o := obs.NewObserver("fault")
			a.Observe(o)
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Fatalf("graceful degradation must not return an error: %v", err)
			}

			failed := res.Health.FailedClasses()
			if !equalStrings(failed, targets) {
				t.Fatalf("failed classes %v, want %v", failed, targets)
			}
			if got := len(res.Health.Errors()); got != len(targets) {
				t.Errorf("%d recovered errors, want %d", got, len(targets))
			}
			for _, e := range res.Health.Errors() {
				if e.Step != pao.StepAnalyze || e.Stack == "" {
					t.Errorf("error missing step/stack: %+v", e)
				}
			}
			if res.Stats.NumUnique != len(clean.Unique)-len(targets) {
				t.Errorf("NumUnique %d, want %d", res.Stats.NumUnique, len(clean.Unique)-len(targets))
			}

			// Every surviving class must be byte-identical to the clean run.
			cleanUA, faultUA := uaBySig(clean), uaBySig(res)
			for sig, want := range cleanUA {
				if contains(targets, sig) {
					if _, ok := faultUA[sig]; ok {
						t.Errorf("failed class %s still has results", sig)
					}
					continue
				}
				if faultUA[sig] != want {
					t.Errorf("surviving class %s diverged from clean run:\n--- clean\n%s--- fault\n%s",
						sig, want, faultUA[sig])
				}
			}

			counters := o.Registry.Snapshot().Counters
			if got := counters["pao.panics.recovered"]; got != int64(len(targets)) {
				t.Errorf("pao.panics.recovered = %d, want %d", got, len(targets))
			}
			if got := counters["pao.degraded.classes"]; got != int64(len(targets)) {
				t.Errorf("pao.degraded.classes = %d, want %d", got, len(targets))
			}
			if _, ok := counters["pao.cancelled"]; ok {
				t.Error("pao.cancelled must not be published on an uncancelled run")
			}
		})
	}
}

// TestFaultDeadlineReturnsPartial: injected per-class slowness plus a 50ms
// deadline must return context.DeadlineExceeded with a partial health report
// in bounded wall-clock, not hang.
func TestFaultDeadlineReturnsPartial(t *testing.T) {
	d := faultDesign(t)
	in := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Kind: faultinject.Delay,
		Sleep: 5 * time.Millisecond, Note: "slow class",
	})
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	a.FaultHook = in.SiteHook()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res, err := a.RunContext(ctx)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res == nil || res.Health == nil {
		t.Fatal("cancelled run must still return a partial result with health")
	}
	if !res.Health.Cancelled() {
		t.Error("health must report cancellation")
	}
	// Bound: the run must stop within a couple of per-class delays of the
	// deadline, far below the ~full-suite runtime the delays would imply.
	if elapsed > 2*time.Second {
		t.Errorf("run took %v after a 50ms deadline", elapsed)
	}
	if res.Stats.NumUnique >= len(d.UniqueInstances()) {
		t.Errorf("expected a partial result, got all %d classes", res.Stats.NumUnique)
	}
}

// TestFaultWorkerRespawn: a panic that escapes the per-class recovery (the
// pao.worker.item site sits outside it) kills the worker goroutine; the pool
// must respawn a replacement, finish every other class, and record the
// in-flight class as failed. One worker runs the same pool, so the respawn
// path is reachable there too.
func TestFaultWorkerRespawn(t *testing.T) {
	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d := faultDesign(t)
			cfg := pao.DefaultConfig()
			cfg.Workers = workers
			clean := pao.NewAnalyzer(d, cfg).Run()
			var targets []string
			for _, ua := range clean.Unique[:2] {
				targets = append(targets, ua.UI.Signature())
			}
			sort.Strings(targets)

			in := faultinject.New()
			for _, sig := range targets {
				in.Add(&faultinject.Fault{
					Site: pao.SiteWorkerItem, Detail: sig,
					Kind: faultinject.Panic, Note: "kill worker at " + sig,
				})
			}
			a := pao.NewAnalyzer(faultDesign(t), cfg)
			a.FaultHook = in.SiteHook()
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got := res.Health.Respawns(); got != len(targets) {
				t.Errorf("%d respawns, want %d", got, len(targets))
			}
			if failed := res.Health.FailedClasses(); !equalStrings(failed, targets) {
				t.Errorf("failed classes %v, want %v", failed, targets)
			}
			// The pool did not shrink: every untargeted class was still analyzed.
			if res.Stats.NumUnique != len(clean.Unique)-len(targets) {
				t.Errorf("NumUnique %d, want %d", res.Stats.NumUnique, len(clean.Unique)-len(targets))
			}
		})
	}
}

// TestFaultFailedPinsQuarantine: a panic inside the failed-pin check (a DRC
// fault on the global engine once SiteFailedPins has fired) lands in Health
// as one failedpins error at every worker count; the check's goroutines must
// not take the process down.
func TestFaultFailedPinsQuarantine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := pao.DefaultConfig()
			cfg.Workers = workers
			a := pao.NewAnalyzer(faultDesign(t), cfg)
			var checking atomic.Bool
			a.FaultHook = func(site, _ string) {
				if site == pao.SiteFailedPins {
					checking.Store(true)
				}
			}
			a.DRCFaultHook = func(_, detail string) []drc.Violation {
				if checking.Load() && detail == "global" {
					panic("injected failed-pin check fault")
				}
				return nil
			}
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if errs := res.Health.Errors(); len(errs) != 1 || errs[0].Step != pao.StepFailedPins {
				t.Fatalf("health errors %v, want one %s error", errs, pao.StepFailedPins)
			}
		})
	}
}

// TestFaultFailFast: with Config.FailFast the first recovered panic aborts
// the run and surfaces as a *PipelineError from RunContext.
func TestFaultFailFast(t *testing.T) {
	d := faultDesign(t)
	clean := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	target := clean.Unique[0].UI.Signature()

	in := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Detail: target, Kind: faultinject.Panic,
	})
	cfg := pao.DefaultConfig()
	cfg.FailFast = true
	a := pao.NewAnalyzer(faultDesign(t), cfg)
	hook := in.SiteHook()
	analyzed := 0 // one worker: the hook runs on one goroutine
	a.FaultHook = func(site, detail string) {
		if site == pao.SiteAnalyzeUnique {
			analyzed++
		}
		hook(site, detail)
	}
	res, err := a.RunContext(context.Background())
	if err == nil {
		t.Fatal("fail-fast run must return an error")
	}
	if analyzed != 1 {
		t.Errorf("one worker started %d classes; fail-fast must stop after the first, which faulted", analyzed)
	}
	var perr *pao.PipelineError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %T %v, want *pao.PipelineError", err, err)
	}
	if perr.Signature != target {
		t.Errorf("error signature %q, want %q", perr.Signature, target)
	}
	if res == nil {
		t.Fatal("fail-fast must still return the partial result")
	}
}

// TestFaultSelectClusterDegrades: a panic in one cluster's Step-3 DP
// degrades its member classes (default pattern retained) without failing
// them, and the run completes.
func TestFaultSelectClusterDegrades(t *testing.T) {
	d := faultDesign(t)
	clean := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()

	in := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteSelectCluster, Call: 1, Kind: faultinject.Panic,
	})
	a := pao.NewAnalyzer(faultDesign(t), pao.DefaultConfig())
	a.FaultHook = in.SiteHook()
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(res.Health.DegradedClasses()) == 0 {
		t.Error("cluster panic must degrade its member classes")
	}
	if len(res.Health.FailedClasses()) != 0 {
		t.Errorf("cluster panic must not fail classes: %v", res.Health.FailedClasses())
	}
	// Step 1/2 results are untouched by a Step-3 fault.
	if res.Stats.NumUnique != clean.Stats.NumUnique || res.Stats.TotalAPs != clean.Stats.TotalAPs {
		t.Errorf("step-1/2 stats diverged: %+v vs %+v", res.Stats.Counts(), clean.Stats.Counts())
	}
	// Degraded members still resolve an access point via the default pattern.
	if res.Stats.TotalPins != clean.Stats.TotalPins {
		t.Errorf("TotalPins %d, want %d", res.Stats.TotalPins, clean.Stats.TotalPins)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
