package obs_test

// Exposition tests, checked by the strict text-format parser
// (CheckProm): the writer's output and the -metrics-listen
// endpoint must both be scrapeable.

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// buildExposition renders a representative mixed exposition: labeled and
// flat families of one registry, gathered with a constant design label whose
// value needs escaping.
func buildExposition(t *testing.T) string {
	t.Helper()
	r := obs.NewRegistry()
	q := r.CounterVec("pao.queries", "queries served by status", "status")
	q.With("ok").Add(7)
	q.With("degraded").Inc()
	h := r.HistogramVec("pao.query", "query latency")
	h.With().Observe(3 * time.Microsecond)
	h.With().Observe(1500 * time.Microsecond)
	r.GaugeVec("pao.access_points", "APs per layer", "layer").With("2").Set(12)
	r.Counter("drc.check.metal").Add(41)
	r.Gauge("pao.failed.pins").Set(2)
	r.Histogram("dist.shard.latency").Observe(time.Millisecond)
	r.Histogram("dist.shard.latency").Observe(30 * time.Millisecond)

	var b strings.Builder
	if err := obs.WriteProm(&b, r.Gather(obs.Label{Name: "design", Value: `de"sign\1`})); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return b.String()
}

// TestPromExpositionParses is the format golden test: the full mixed
// exposition must survive the strict parser — valid names, escaped labels,
// HELP/TYPE before samples, no duplicate series, cumulative histogram
// buckets matching _count — and follow the naming rule.
func TestPromExpositionParses(t *testing.T) {
	out := buildExposition(t)
	scrape, err := obs.CheckProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	if got := scrape.Series[`pao_queries_total{design="de\"sign\\1",status="ok"}`]; got != 7 {
		t.Fatalf("escaped labeled counter = %v, want 7\n%s", got, out)
	}
	for name, typ := range map[string]string{
		"drc_check_metal_total":      "counter",
		"pao_failed_pins":            "gauge",
		"dist_shard_latency_seconds": "histogram",
		"pao_query_seconds":          "histogram",
		"pao_access_points":          "gauge",
	} {
		if got := scrape.Families[name].Type; got != typ {
			t.Fatalf("family %s type = %q, want %s\n%s", name, got, typ, out)
		}
	}
	if got := scrape.Series[`dist_shard_latency_seconds_count{design="de\"sign\\1"}`]; got != 2 {
		t.Fatalf("histogram count = %v, want 2\n%s", got, out)
	}
	// Spot-check structural lines.
	for _, want := range []string{
		"# TYPE pao_query_seconds histogram",
		"# HELP pao_queries_total queries served by status",
		"# HELP drc_check_metal_total counter drc.check.metal",
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPromDuplicateMergedFamilies: two snapshots of the same family name
// must merge into one TYPE block with deduplicated series.
func TestPromDuplicateMergedFamilies(t *testing.T) {
	fams := []obs.FamilySnapshot{
		{Name: "x", Type: obs.TypeCounter, Labels: []string{"a"},
			Series: []obs.SeriesSnapshot{{LabelValues: []string{"1"}, Value: 5}}},
		{Name: "x", Type: obs.TypeCounter, Labels: []string{"a"},
			Series: []obs.SeriesSnapshot{
				{LabelValues: []string{"1"}, Value: 9}, // dup: dropped
				{LabelValues: []string{"2"}, Value: 3},
			}},
	}
	var b strings.Builder
	if err := obs.WriteProm(&b, fams); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE x_total") != 1 {
		t.Fatalf("family emitted twice:\n%s", out)
	}
	scrape, err := obs.CheckProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, out)
	}
	if scrape.Series[`x_total{a="1"}`] != 5 || scrape.Series[`x_total{a="2"}`] != 3 {
		t.Fatalf("bad merged series: %+v", scrape.Series)
	}
}

// TestFlagsListenServes: -metrics-listen boots a listener whose /metrics
// output parses and carries the run's labels.
func TestFlagsListenServes(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := obs.RegisterBatchFlags(fs)
	if err := fs.Parse([]string{"-metrics-listen=127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	run, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	defer endRun(t, run)
	if err := run.Listen(obs.Label{Name: "design", Value: "c17"}); err != nil {
		t.Fatal(err)
	}
	if run.Obs == nil || run.Addr() == "" {
		t.Fatalf("listener incomplete: obs=%v addr=%q", run.Obs, run.Addr())
	}

	run.Obs.Reg().Counter("pao.unique.classes").Add(3)
	run.Obs.Reg().Histogram("pao.step1").Observe(2 * time.Millisecond)

	body := httpGet(t, "http://"+run.Addr()+"/metrics")
	scrape, err := obs.CheckProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, body)
	}
	if scrape.Series[`pao_unique_classes_total{design="c17"}`] != 3 {
		t.Fatalf("labeled counter missing: %+v", scrape.Series)
	}
	if scrape.Series[`pao_step1_seconds_count{design="c17"}`] != 1 {
		t.Fatalf("labeled histogram missing: %+v", scrape.Series)
	}
}

// TestFlagsLiveExtraCounters: counters that the run's components count
// mid-run (the DRC engines' drc.* counters, resolved by name from the run's
// registry) are registry series, so a -metrics-listen scrape sees them while
// the run executes, added once to what the registry already held, and the
// end of the run folds nothing in, so a later scrape does not double-count.
func TestFlagsLiveExtraCounters(t *testing.T) {
	run, err := (&obs.Flags{Listen: "127.0.0.1:0"}).Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	defer endRun(t, run)
	if err := run.Listen(obs.Label{Name: "design", Value: "c17"}); err != nil {
		t.Fatal(err)
	}
	series := func() map[string]float64 {
		t.Helper()
		s, err := obs.CheckProm(strings.NewReader(httpGet(t, "http://"+run.Addr()+"/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		return s.Series
	}

	reg := run.Obs.Reg()
	reg.Counter("drc.via.attempted").Add(5)
	// A component resolves the same series by name and counts into it.
	reg.Counter("drc.via.attempted").Add(7)
	reg.Counter("drc.viacache.hit").Add(14)
	got := series()
	if v := got[`drc_via_attempted_total{design="c17"}`]; v != 12 {
		t.Fatalf("shared counter = %v, want 12", v)
	}
	if v := got[`drc_viacache_hit_total{design="c17"}`]; v != 14 {
		t.Fatalf("component-only counter = %v, want 14", v)
	}
	if v := series()[`drc_via_attempted_total{design="c17"}`]; v != 12 {
		t.Fatalf("second scrape = %v, want 12", v)
	}
}

// TestFlagsPublishHandoff: the run's registry is the only counter store, so
// there is no end-of-run handoff for a scrape to race: a -metrics-listen
// scrape issued while the run still counts reads each counter as it stands,
// once. While a writer counts, successive scrapes never go backwards, and
// once it stops a scrape reads exactly the counter's total.
func TestFlagsPublishHandoff(t *testing.T) {
	run, err := (&obs.Flags{Listen: "127.0.0.1:0"}).Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	defer endRun(t, run)
	if err := run.Listen(obs.Label{Name: "design", Value: "c17"}); err != nil {
		t.Fatal(err)
	}
	scrape := func() float64 {
		t.Helper()
		s, err := obs.CheckProm(strings.NewReader(httpGet(t, "http://"+run.Addr()+"/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		return s.Series[`drc_via_attempted_total{design="c17"}`]
	}

	ctr := run.Obs.Reg().Counter("drc.via.attempted")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ctr.Inc()
			}
		}
	}()
	var last float64
	for i := 0; i < 5; i++ {
		v := scrape()
		if v < last {
			t.Fatalf("scrape %d read %v after %v", i, v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
	if v, want := scrape(), float64(ctr.Load()); v != want {
		t.Fatalf("scrape after the writer stopped = %v, want %v", v, want)
	}
}

func endRun(t *testing.T, run *obs.Run) {
	t.Helper()
	var err error
	if run.End(&err); err != nil {
		t.Error(err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
