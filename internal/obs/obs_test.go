package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every hook must be a no-op on a nil receiver — the
// instrumented code paths rely on it instead of enabled-checks.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded nonzero")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot nonzero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	if len(r.Snapshot().Counters) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
	var sp *Span
	if sp.Start("a") != nil || sp.Agg("a") != nil {
		t.Fatal("nil span created a child")
	}
	sp.AddDur(time.Second)
	sp.AddTime("a", time.Second)
	if sp.End() != 0 || sp.Duration() != 0 || sp.Count() != 0 || sp.Export() != nil {
		t.Fatal("nil span accumulated")
	}
	var o *Observer
	if o.Root() != nil || o.Reg() != nil {
		t.Fatal("nil observer returned components")
	}
	if rep := o.Report(); rep.Counters == nil {
		t.Fatal("nil observer report has nil counters map")
	}
	o.WriteText(&bytes.Buffer{}) // must not panic
}

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(2.5)
	g.Set(0.75)
	if g.Load() != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", g.Load())
	}
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0 (sub-microsecond)
	h.Observe(3 * time.Microsecond)  // bucket 2: [2,4) us
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Millisecond)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	if s.MaxMS != 1.0 {
		t.Fatalf("max = %vms, want 1", s.MaxMS)
	}
	if s.AvgMS <= 0 || s.SumMS < 1.0 {
		t.Fatalf("bad avg/sum: %+v", s)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
		if b.Count == 0 {
			t.Fatal("empty bucket exported")
		}
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
}

// TestRegistryConcurrent: get-or-create and Add race-free from many
// goroutines; run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(time.Microsecond)
				r.Gauge("level").Set(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSpanTree: stopwatch and aggregated children combine into one exported
// tree with accumulated durations and counts.
func TestSpanTree(t *testing.T) {
	tr := NewTrace("run")
	root := tr.Root

	step := root.Start("step1")
	time.Sleep(time.Millisecond)
	if d := step.End(); d < time.Millisecond {
		t.Fatalf("End returned %v", d)
	}

	// Aggregated leaves, concurrently.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				step.AddTime("item", 10*time.Microsecond)
			}
		}()
	}
	wg.Wait()

	root.End()
	e := root.Export()
	if e.Name != "run" || len(e.Children) != 1 {
		t.Fatalf("bad root export: %+v", e)
	}
	s1 := e.Children[0]
	if s1.Name != "step1" || s1.DurMS < 1 {
		t.Fatalf("bad step export: %+v", s1)
	}
	if len(s1.Children) != 1 || s1.Children[0].Count != 400 {
		t.Fatalf("aggregated child wrong: %+v", s1.Children)
	}
	if got := s1.Children[0].DurMS; got < 3.9 || got > 4.1 {
		t.Fatalf("aggregated duration = %vms, want ~4", got)
	}

	var txt bytes.Buffer
	root.WriteText(&txt)
	out := txt.String()
	for _, want := range []string{"run", "step1", "item", "x400"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q:\n%s", want, out)
		}
	}
	var js bytes.Buffer
	if err := root.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back SpanExport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("span JSON does not round-trip: %v", err)
	}
}

// TestSpanRestart: a stopwatch span may run repeatedly, accumulating.
func TestSpanRestart(t *testing.T) {
	tr := NewTrace("r")
	sp := tr.Root.Start("phase")
	sp.End()
	sp.start = time.Now()
	sp.End()
	if sp.Count() != 2 {
		t.Fatalf("count = %d, want 2", sp.Count())
	}
}

// TestFlagsStartJSON: the CLI surface end to end — flags parsed, observer
// instrumented, End emits a JSON report containing the metrics and trace.
func TestFlagsStartJSON(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-metrics=json"}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	f.Out = &out
	run, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	o := run.Obs
	if o == nil {
		t.Fatal("json mode must return an observer")
	}
	o.Reg().Counter("drc.check.metal").Add(7)
	o.Root().Start("work").End()
	run.End(&err)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Name     string           `json:"name"`
		Counters map[string]int64 `json:"counters"`
		Trace    *SpanExport      `json:"trace"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Name != "tool" || rep.Counters["drc.check.metal"] != 7 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Trace == nil || len(rep.Trace.Children) != 1 || rep.Trace.Children[0].Name != "work" {
		t.Fatalf("bad trace: %+v", rep.Trace)
	}
}

// TestFlagsDisabled: with no flags set the run has a nil observer (all hooks
// no-op), and End writes nothing and keeps the caller's error.
func TestFlagsDisabled(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterBatchFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	f.Out = &out
	run, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if run.Obs != nil {
		t.Fatal("disabled mode must return a nil observer")
	}
	runErr := errors.New("run failed")
	err = runErr
	run.End(&err)
	if err != runErr {
		t.Fatalf("End changed the run error to %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("disabled mode wrote output: %q", out.String())
	}
}

func TestFlagsBadMode(t *testing.T) {
	f := &Flags{Metrics: "yaml"}
	if _, err := f.Start("tool"); err == nil {
		t.Fatal("bad -metrics mode must error")
	}
}

func TestRegistryVecs(t *testing.T) {
	r := NewRegistry()
	qv := r.CounterVec("pao.queries", "queries served", "design", "status")
	qv.With("c17", "ok").Add(3)
	qv.With("c17", "degraded").Inc()
	qv.With("c17", "ok").Inc() // same series again
	if got := qv.With("c17", "ok").Load(); got != 4 {
		t.Fatalf("counter series = %d, want 4", got)
	}

	gv := r.GaugeVec("pao.access_points", "APs per layer", "design", "layer")
	gv.With("c17", "2").Set(12)
	hv := r.HistogramVec("pao.query", "query latency", "design")
	hv.With("c17").Observe(3 * time.Microsecond)
	hv.With("c17").Observe(1500 * time.Microsecond)

	fams := r.Gather()
	if len(fams) != 3 {
		t.Fatalf("gathered %d families, want 3", len(fams))
	}
	// Sorted by name: access_points, queries, query.
	if fams[0].Name != "pao.access_points" || fams[1].Name != "pao.queries" || fams[2].Name != "pao.query" {
		t.Fatalf("family order wrong: %s %s %s", fams[0].Name, fams[1].Name, fams[2].Name)
	}
	if len(fams[1].Series) != 2 {
		t.Fatalf("counter family has %d series, want 2", len(fams[1].Series))
	}
	if fams[2].Series[0].Hist.Count != 2 {
		t.Fatalf("histogram series count = %d, want 2", fams[2].Series[0].Hist.Count)
	}

	// A zero-label family is the flat metric of the same name; constant
	// labels lead every gathered series; Snapshot keys labeled series
	// name{k="v"}.
	r.CounterVec("serve.requests", "requests").With().Add(2)
	r.Counter("serve.requests").Inc()
	for _, f := range r.Gather(Label{Name: "host", Value: "h1"}) {
		if f.Labels[0] != "host" || f.Series[0].LabelValues[0] != "h1" {
			t.Fatalf("constant label missing on %s: %v %v", f.Name, f.Labels, f.Series[0].LabelValues)
		}
	}
	m := r.Snapshot()
	if m.Counters["serve.requests"] != 3 || m.Counters[`pao.queries{design="c17",status="ok"}`] != 4 {
		t.Fatalf("snapshot counters = %v", m.Counters)
	}
	if m.Gauges[`pao.access_points{design="c17",layer="2"}`] != 12 {
		t.Fatalf("snapshot gauges = %v", m.Gauges)
	}
}

func TestRegistryVecNilSafety(t *testing.T) {
	var r *Registry
	cv := r.CounterVec("x", "", "l")
	gv := r.GaugeVec("x", "", "l")
	hv := r.HistogramVec("x", "", "l")
	if cv != nil || gv != nil || hv != nil {
		t.Fatal("nil registry returned a vec")
	}
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(time.Second)
	if r.Gather() != nil {
		t.Fatal("nil registry gathered families")
	}
}

func TestRegistryVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	v.With("only-one")
}

// TestRegistryTypeConflictPanics: a name has one type and one label schema,
// whether registered flat or labeled.
func TestRegistryTypeConflictPanics(t *testing.T) {
	for name, conflict := range map[string]func(r *Registry){
		"vec type":    func(r *Registry) { r.CounterVec("m", "", "a"); r.GaugeVec("m", "", "a") },
		"vec labels":  func(r *Registry) { r.CounterVec("m", "", "a"); r.CounterVec("m", "", "b") },
		"flat type":   func(r *Registry) { r.Counter("m"); r.Gauge("m") },
		"flat vs vec": func(r *Registry) { r.CounterVec("m", "", "a"); r.Counter("m") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s conflict must panic", name)
				}
			}()
			conflict(NewRegistry())
		}()
	}
}

func TestRegistryConcurrentSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits", "", "shard")
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				v.With(shard).Inc()
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, s := range r.Gather()[0].Series {
		total += int64(s.Value)
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
}

// TestRegistryLookupsAllocFree: the lookups a served request makes — a flat
// metric by name and a labeled series that already exists — allocate
// nothing. The two-label With guards the key build: a joined-string key
// allocates there even though a one-value join does not.
func TestRegistryLookupsAllocFree(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.shed.rate").Inc()
	status := r.CounterVec("pao.queries", "", "status")
	status.With("ok").Inc()
	pair := r.CounterVec("pao.pairs", "", "design", "status")
	pair.With("c17", "ok").Inc()
	for name, lookup := range map[string]func(){
		"flat":      func() { r.Counter("serve.shed.rate").Inc() },
		"one-label": func() { status.With("ok").Inc() },
		"two-label": func() { pair.With("c17", "ok").Inc() },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s lookup allocates %v times per call", name, n)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"drc.check.metal": "drc_check_metal",
		"serve latency":   "serve_latency",
		"9lives":          "_9lives",
		"ok_name:x":       "ok_name:x",
		"":                "_",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
