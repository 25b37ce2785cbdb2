package telemetry

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestFlagsActivateServes: -metrics-listen boots a side listener whose
// /metrics output parses and whose /debug/slowlog returns the recorded runs.
func TestFlagsActivateServes(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-metrics-listen=127.0.0.1:0", "-trace-sample=1"}); err != nil {
		t.Fatal(err)
	}
	o, tel, err := f.Activate("tool", nil, Label{Name: "design", Value: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || tel == nil || tel.Addr() == "" {
		t.Fatalf("activation incomplete: obs=%v tel=%v", o, tel)
	}
	defer tel.Close()

	o.Reg().Counter("pao.unique.classes").Add(3)
	o.Reg().Histogram("pao.step1").Observe(2 * time.Millisecond)
	root := o.Root()
	root.Start("step1").End()
	tel.RecordRun("run", "case=c17", NewCorrID(), time.Now(), 250*time.Millisecond, root)

	body := httpGet(t, "http://"+tel.Addr()+"/metrics")
	scrape, err := CheckProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, body)
	}
	if scrape.Series[`pao_unique_classes_total{design="c17"}`] != 3 {
		t.Fatalf("labeled counter missing: %+v", scrape.Series)
	}

	slow := httpGet(t, "http://"+tel.Addr()+"/debug/slowlog")
	for _, want := range []string{`"op": "run"`, `"case=c17"`, `"step1"`} {
		if !strings.Contains(slow, want) {
			t.Fatalf("slowlog missing %q:\n%s", want, slow)
		}
	}
}

// TestFlagsLiveExtraCounters: a SetExtra source is folded into every scrape
// (how mid-run analyzer counters become visible before PublishObs), added on
// top of the registry's own totals, and cleared by SetExtra(nil).
func TestFlagsLiveExtraCounters(t *testing.T) {
	f := &Flags{Listen: "127.0.0.1:0"}
	o, tel, err := f.Activate("tool", nil, Label{Name: "design", Value: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()

	o.Reg().Counter("drc.via.attempted").Add(5)
	live := int64(0)
	tel.SetExtra(func() map[string]int64 {
		return map[string]int64{"drc.via.attempted": live, "drc.viacache.hit": 2 * live}
	})
	series := func() map[string]float64 {
		t.Helper()
		s, err := CheckProm(strings.NewReader(httpGet(t, "http://"+tel.Addr()+"/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		return s.Series
	}

	live = 7
	got := series()
	if v := got[`drc_via_attempted_total{design="c17"}`]; v != 12 {
		t.Fatalf("registry+extra = %v, want 12", v)
	}
	if v := got[`drc_viacache_hit_total{design="c17"}`]; v != 14 {
		t.Fatalf("extra-only counter = %v, want 14", v)
	}

	// End of run: totals folded into the registry, extra cleared — the scrape
	// must not double-count.
	o.Reg().Counter("drc.via.attempted").Add(live)
	tel.SetExtra(nil)
	if v := series()[`drc_via_attempted_total{design="c17"}`]; v != 12 {
		t.Fatalf("after clear = %v, want 12", v)
	}
	var nilTel *Telemetry
	nilTel.SetExtra(func() map[string]int64 { return nil }) // nil-safe
}

// TestFlagsDisabledTelemetry: with no flags set, Activate is a no-op that
// preserves the caller's (nil) observer.
func TestFlagsDisabledTelemetry(t *testing.T) {
	f := &Flags{}
	o, tel, err := f.Activate("tool", nil)
	if err != nil || o != nil || tel != nil {
		t.Fatalf("disabled activate = %v %v %v", o, tel, err)
	}
	// All Telemetry methods nil-safe.
	tel.RecordRun("run", "", "c", time.Now(), time.Second, nil)
	if tel.Addr() != "" || tel.Close() != nil {
		t.Fatal("nil telemetry misbehaved")
	}
	var nilF *Flags
	if _, tel, err := nilF.Activate("tool", nil); err != nil || tel != nil {
		t.Fatal("nil flags must be a no-op")
	}
}

func TestFlagsBadSampleRate(t *testing.T) {
	f := &Flags{TraceSample: 1.5}
	if _, _, err := f.Activate("tool", nil); err == nil {
		t.Fatal("out-of-range -trace-sample must error")
	}
}

// TestFlagsSampleOnlyNoListener: -trace-sample without -metrics-listen still
// produces a sampler (exemplars flow into the CLI slow log / trace output).
func TestFlagsSampleOnlyNoListener(t *testing.T) {
	f := &Flags{TraceSample: 1}
	o, tel, err := f.Activate("tool", nil)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatal("no listener must not force an observer")
	}
	if tel == nil || !tel.Sampler.Sample() {
		t.Fatal("sampler missing")
	}
	if tel.Addr() != "" {
		t.Fatal("unexpected listener")
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
