package pao

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/suite"
)

// runWithObs analyzes the design with the given worker count under a fresh
// observer and returns the result plus the observer's counter totals.
func runWithObs(t *testing.T, workers int) (Stats, map[string]int64) {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	a := NewAnalyzer(d, cfg)
	o := obs.NewObserver("test")
	a.Observe(o)
	res := a.Run()
	return res.Stats, o.Registry.Snapshot().Counters
}

// TestObsWorkerEquivalence: the analysis is deterministic across worker
// counts, and so is every counter — the same checks, queries and via
// validations run regardless of how the unique instances are scheduled.
// Histograms and gauges (worker telemetry) legitimately differ and are
// excluded. Run under -race in CI.
func TestObsWorkerEquivalence(t *testing.T) {
	seqStats, seqCounts := runWithObs(t, 1)
	parStats, parCounts := runWithObs(t, 4)

	if seqStats.Counts() != parStats.Counts() {
		t.Fatalf("stats differ:\nseq %+v\npar %+v", seqStats.Counts(), parStats.Counts())
	}
	if !reflect.DeepEqual(seqCounts, parCounts) {
		t.Errorf("counter totals differ between Workers=1 and Workers=4:")
		for name, v := range seqCounts {
			if parCounts[name] != v {
				t.Errorf("  %s: seq=%d par=%d", name, v, parCounts[name])
			}
		}
		for name, v := range parCounts {
			if _, ok := seqCounts[name]; !ok {
				t.Errorf("  %s: only in par (=%d)", name, v)
			}
		}
	}
	if len(seqCounts) == 0 {
		t.Fatal("no counters recorded")
	}
	// The acceptance-level counter families must be present.
	for _, name := range []string{"drc.query.count", "drc.check.metal", "drc.via.attempted", "drc.viacache.hit", "drc.viacache.miss", "pao.step12.items"} {
		if _, ok := seqCounts[name]; !ok {
			t.Errorf("counter %q missing from the observer's registry", name)
		}
	}
}

// TestObsSpanTree: an observed run produces the documented span shape —
// pao.run with step children and per-unique-instance aggregation.
func TestObsSpanTree(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(d, DefaultConfig())
	o := obs.NewObserver("test")
	a.Observe(o)
	a.Run()

	e := o.Root().Export()
	var run *obs.SpanExport
	for _, c := range e.Children {
		if c.Name == "pao.run" {
			run = c
		}
	}
	if run == nil {
		t.Fatalf("no pao.run span under root: %+v", e.Children)
	}
	want := map[string]bool{"pao.step12": false, "drc.engine": false, "pao.step3": false, "pao.failedpins": false}
	var step12 *obs.SpanExport
	for _, c := range run.Children {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
		if c.Name == "pao.step12" {
			step12 = c
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q missing under pao.run", name)
		}
	}
	if step12 == nil || len(step12.Children) == 0 {
		t.Fatal("pao.step12 has no per-unique-instance children")
	}
	ui := step12.Children[0]
	if len(ui.Children) == 0 {
		t.Fatalf("unique-instance span %q has no per-pin children", ui.Name)
	}
}
