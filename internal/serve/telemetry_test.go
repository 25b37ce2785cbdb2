package serve

// Telemetry endpoint tests: the Prometheus exposition must parse under the
// strict text-format checker while queries run concurrently, the explain
// endpoint must serve the decision audit joined with live serving state, and
// every admitted query must carry a correlation ID into the slow log.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
)

func TestServeExplainEndpoint(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	oneDesign(t, m, d, nil)
	h := m.Handler()

	inst := d.Instances[0]
	pins := inst.Master.SignalPins()
	if len(pins) == 0 {
		t.Fatal("test design has no signal pins")
	}
	pin := pins[0].Name

	code, hdr, body := get(t, h, "/v1/access/explain?inst="+inst.Name+"&pin="+pin)
	if code != http.StatusOK {
		t.Fatalf("explain = %d (%s), want 200", code, body)
	}
	if hdr.Get("X-Correlation-Id") == "" {
		t.Fatal("explain response missing X-Correlation-Id")
	}
	var resp ExplainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad explain JSON: %v\n%s", err, body)
	}
	if resp.Inst != inst.Name || resp.Pin != pin {
		t.Fatalf("explain identity = %s/%s, want %s/%s", resp.Inst, resp.Pin, inst.Name, pin)
	}
	if resp.Source != "recompute" || resp.Status != "ok" {
		t.Fatalf("explain serving state = %s/%s, want recompute/ok", resp.Source, resp.Status)
	}
	if resp.Quarantined {
		t.Fatalf("explain quarantined: %s", resp.QuarantineError)
	}
	if len(resp.APs) == 0 {
		t.Fatal("explain audit has no candidate APs")
	}
	accepted := 0
	for _, ap := range resp.APs {
		if ap.Accepted {
			accepted++
		} else if ap.Reject == "" {
			t.Fatalf("rejected candidate (%d,%d) carries no reject reason", ap.X, ap.Y)
		}
	}
	if accepted != resp.AcceptedAPs {
		t.Fatalf("audit accepts %d candidates, report says %d", accepted, resp.AcceptedAPs)
	}
	if !resp.Cached {
		t.Fatal("explain under the serving config should run cached")
	}

	// The live answer and the audit must agree on the selected pattern.
	qcode, q, _ := queryInst(t, h, inst.Name)
	if qcode != http.StatusOK {
		t.Fatalf("access query = %d", qcode)
	}
	if resp.Pattern != q.Pattern {
		t.Fatalf("explain pattern %d != served pattern %d", resp.Pattern, q.Pattern)
	}
	if resp.PatternCount == 0 {
		t.Fatal("explain audit reports zero patterns for a healthy class")
	}

	// Parameter and lookup failures.
	if code, _, _ := get(t, h, "/v1/access/explain?inst="+inst.Name); code != http.StatusBadRequest {
		t.Fatalf("missing pin = %d, want 400", code)
	}
	if code, _, _ := get(t, h, "/v1/access/explain?pin="+pin); code != http.StatusBadRequest {
		t.Fatalf("missing inst = %d, want 400", code)
	}
	if code, _, _ := get(t, h, "/v1/access/explain?inst=no_such&pin="+pin); code != http.StatusNotFound {
		t.Fatalf("unknown instance = %d, want 404", code)
	}
	if code, _, _ := get(t, h, "/v1/access/explain?inst="+inst.Name+"&pin=no_such"); code != http.StatusNotFound {
		t.Fatalf("unknown pin = %d, want 404", code)
	}
}

func TestServeMetricsPromFormat(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	oneDesign(t, m, d, nil)
	h := m.Handler()

	const n = 5
	for i := 0; i < n; i++ {
		if code, _, _ := queryInst(t, h, d.Instances[0].Name); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	get(t, h, "/v1/access") // 400: client_error series

	code, hdr, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	scrape, err := obs.CheckProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}

	okSeries := fmt.Sprintf("pao_queries_total{design=%q,status=%q}", testID, "ok")
	if got := scrape.Series[okSeries]; got < n {
		t.Fatalf("%s = %v, want >= %d", okSeries, got, n)
	}
	clientErr := fmt.Sprintf("pao_queries_total{design=%q,status=%q}", testID, "client_error")
	if got := scrape.Series[clientErr]; got < 1 {
		t.Fatalf("%s = %v, want >= 1", clientErr, got)
	}
	if typ := scrape.Families["pao_query_seconds"].Type; typ != "histogram" {
		t.Fatalf("pao_query_seconds type = %q, want histogram", typ)
	}
	cnt := fmt.Sprintf("pao_query_seconds_count{design=%q}", testID)
	if got := scrape.Series[cnt]; got < n {
		t.Fatalf("%s = %v, want >= %d", cnt, got, n)
	}
	// Step durations and per-layer AP gauges published by swap().
	if typ := scrape.Families["pao_step_seconds"].Type; typ != "histogram" {
		t.Fatalf("pao_step_seconds type = %q, want histogram", typ)
	}
	apSeries := 0
	for id := range scrape.Series {
		if strings.HasPrefix(id, "pao_access_points{") {
			apSeries++
		}
	}
	if apSeries == 0 {
		t.Fatal("no pao_access_points series in exposition")
	}
	// Every request lands in exactly one status series, so their sum counts
	// the requests: n queries plus the 400.
	var reqs float64
	for id, v := range scrape.Series {
		if strings.HasPrefix(id, fmt.Sprintf("pao_queries_total{design=%q,", testID)) {
			reqs += v
		}
	}
	if reqs != n+1 {
		t.Fatalf("sum of pao_queries_total = %v, want %d; %d series total", reqs, n+1, len(scrape.Series))
	}
}

// TestServeScrapeWhileServing runs queries and /metrics scrapes concurrently;
// every scrape must parse under the strict checker (no torn series, no
// duplicate families) and every query must still answer. Run with -race this
// also proves the registry and histogram snapshots are data-race free.
func TestServeScrapeWhileServing(t *testing.T) {
	d := serveDesign(t)
	// An unbounded wait queue: the workers outnumber the NumCPU slots on a
	// small host, and a shed query is not what this test is about.
	m := newTestManager(t, ManagerConfig{Design: Config{QueueDepth: -1, TraceSample: 1, SlowThreshold: time.Nanosecond}})
	oneDesign(t, m, d, nil)
	h := m.Handler()

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst := d.Instances[w%len(d.Instances)]
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+inst.Name, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("query = %d", rec.Code)
					return
				}
				if rec.Header().Get("X-Correlation-Id") == "" {
					errc <- fmt.Errorf("query response missing X-Correlation-Id")
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("/metrics = %d", rec.Code)
					return
				}
				if _, err := obs.CheckProm(rec.Body); err != nil {
					errc <- fmt.Errorf("scrape %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// With TraceSample=1 and a nanosecond threshold every query lands in the
	// slow log, newest first, each with an exemplar span tree.
	code, _, body := get(t, h, "/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog = %d", code)
	}
	var log SlowLogResponse
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatalf("bad slowlog JSON: %v\n%s", err, body)
	}
	if log.Total < workers*iters {
		t.Fatalf("slowlog total = %d, want >= %d", log.Total, workers*iters)
	}
	if len(log.Entries) == 0 {
		t.Fatal("slowlog retained no entries")
	}
	for _, e := range log.Entries {
		if e.CorrID == "" || e.Op == "" {
			t.Fatalf("slowlog entry missing identity: %+v", e)
		}
		if e.Trace == nil {
			t.Fatalf("sampled entry %s has no trace exemplar", e.CorrID)
		}
	}
}

func TestServeCorrelationIDEcho(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{TraceSample: 1, SlowThreshold: time.Nanosecond}})
	oneDesign(t, m, d, nil)
	h := m.Handler()

	const corr = "caller-supplied-0042"
	req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+d.Instances[0].Name, nil)
	req.Header.Set("X-Correlation-Id", corr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Correlation-Id"); got != corr {
		t.Fatalf("corr echo = %q, want %q", got, corr)
	}

	// The caller's ID must be the one the slow log records.
	_, _, body := get(t, h, "/debug/slowlog")
	var log SlowLogResponse
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range log.Entries {
		if e.CorrID == corr {
			found = true
			if e.Op != "access" {
				t.Fatalf("entry op = %q, want access", e.Op)
			}
		}
	}
	if !found {
		t.Fatalf("slowlog has no entry for corr %q: %+v", corr, log.Entries)
	}
}

func TestServeVersionEndpoint(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	oneDesign(t, m, d, nil)

	code, _, body := get(t, m.Handler(), "/version")
	if code != http.StatusOK {
		t.Fatalf("/version = %d", code)
	}
	var v struct {
		Build   cliutil.BuildInfo `json:"build"`
		Designs map[string]struct {
			DesignHash        string `json:"design_hash"`
			ConfigFingerprint string `json:"config_fingerprint"`
			Source            string `json:"source"`
		} `json:"designs"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad version JSON: %v\n%s", err, body)
	}
	dv, ok := v.Designs[testID]
	if !ok {
		t.Fatalf("no /version entry for design %q: %s", testID, body)
	}
	if dv.DesignHash == "" || dv.ConfigFingerprint == "" {
		t.Fatalf("missing fingerprints: %+v", dv)
	}
	if v.Build.GoVersion == "" {
		t.Fatal("missing go version in build info")
	}
	if dv.Source != "recompute" {
		t.Fatalf("source = %q, want recompute", dv.Source)
	}
}

// TestServeObserverBuildsNoTrace: a server's observer has no trace, so its
// re-analyses and ECO sessions grow no span tree that nothing reads, while
// their analyzers count into the registry /metrics scrapes.
func TestServeObserverBuildsNoTrace(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()
	queries := func() float64 {
		t.Helper()
		_, _, body := get(t, h, "/metrics")
		scrape, err := obs.CheckProm(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return scrape.Series[fmt.Sprintf("drc_query_count_total{design=%q}", testID)]
	}
	prev := queries()
	if prev == 0 {
		t.Fatal("first analysis counted no drc.query.count")
	}
	for i := 0; i < 3; i++ {
		s.reanalyze(context.Background())
		got := queries()
		if got <= prev {
			t.Fatalf("re-analysis %d: drc_query_count_total = %v, was %v", i, got, prev)
		}
		prev = got
	}
	mover := d.Instances[0]
	move := fmt.Sprintf(`{"ops":[{"op":"move","inst":%q,"x":%d,"y":%d}]}`,
		mover.Name, mover.Pos.X+70, mover.Pos.Y)
	if code, body := postECO(t, h, move); code != http.StatusOK {
		t.Fatalf("eco = %d: %s", code, body)
	}
	if got := queries(); got <= prev {
		t.Fatalf("ECO move: drc_query_count_total = %v, was %v", got, prev)
	}
	if s.Obs.Trace != nil || s.Obs.Root() != nil {
		t.Fatalf("server observer holds a span tree: %+v", s.Obs.Root().Export())
	}
}
