package serve

// Manager tests: the design registry lifecycle over HTTP, and the bulkhead
// isolation acceptance test — faults stormed into one design leave a second
// design's traffic untouched.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/pao"
)

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	m := NewManager(pao.DefaultConfig(), cfg)
	t.Cleanup(m.bgCancel)
	return m
}

// registerTestDesign registers a generated design under id directly (no HTTP).
func registerTestDesign(t *testing.T, m *Manager, id string, tune func(*Config)) *db.Design {
	t.Helper()
	d := serveDesign(t)
	d.Name = id
	if _, err := m.RegisterDesign(context.Background(), id, d, m.paoCfg, &RegisterOptions{Tune: tune}); err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
	return d
}

func do(t *testing.T, h http.Handler, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	b, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, b
}

func TestManagerRegistryHTTP(t *testing.T) {
	m := newTestManager(t, ManagerConfig{WarmWait: 5 * time.Second})
	h := m.Handler()

	// Empty registry: listing works, queries 404.
	code, body := do(t, h, http.MethodGet, "/v1/designs", nil)
	if code != http.StatusOK {
		t.Fatalf("empty list = %d: %s", code, body)
	}
	if code, body = do(t, h, http.MethodGet, "/v1/access?inst=x", nil); code != http.StatusNotFound {
		t.Fatalf("query on empty registry = %d, want 404: %s", code, body)
	}

	// Register over HTTP from a generated case.
	reg := []byte(`{"id":"alpha","case":"pao_test1","scale":0.01,"seed":7}`)
	if code, body = do(t, h, http.MethodPost, "/v1/designs", reg); code != http.StatusCreated {
		t.Fatalf("register = %d, want 201: %s", code, body)
	}
	var info DesignInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "alpha" || info.State != "ready" || !info.Ready || info.Instances == 0 {
		t.Fatalf("registered info = %+v", info)
	}

	// Duplicate → 409; bad ID → 400; unknown case → 422; bad JSON → 400.
	if code, body = do(t, h, http.MethodPost, "/v1/designs", reg); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409: %s", code, body)
	}
	if code, _ = do(t, h, http.MethodPost, "/v1/designs",
		[]byte(`{"id":"../etc","case":"pao_test1"}`)); code != http.StatusBadRequest {
		t.Fatalf("bad ID = %d, want 400", code)
	}
	if code, _ = do(t, h, http.MethodPost, "/v1/designs",
		[]byte(`{"id":"nope","case":"no_such_case"}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown case = %d, want 422", code)
	}
	if code, _ = do(t, h, http.MethodPost, "/v1/designs", []byte(`{"id":`)); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON = %d, want 400", code)
	}

	// Single resident design: unscoped queries are unambiguous.
	var d *db.Design
	{
		srv := m.ServerFor("alpha")
		if srv == nil {
			t.Fatal("no server for alpha")
		}
		d = srv.design
	}
	inst := d.Instances[0].Name
	if code, body = do(t, h, http.MethodGet, "/v1/access?inst="+inst, nil); code != http.StatusOK {
		t.Fatalf("unscoped single-design query = %d: %s", code, body)
	}

	// Second design → unscoped becomes ambiguous (400), scoped works.
	registerTestDesign(t, m, "beta", nil)
	code, body = do(t, h, http.MethodGet, "/v1/access?inst="+inst, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "ambiguous") {
		t.Fatalf("unscoped two-design query = %d, want 400 ambiguous: %s", code, body)
	}
	for _, path := range []string{
		"/v1/access?design=alpha&inst=" + inst,
		"/v1/access?design=beta&inst=" + inst,
		"/debug/slowlog?design=alpha",
		"/v1/access/explain?design=alpha&inst=" + inst + "&pin=" + d.Instances[0].Master.SignalPins()[0].Name,
		"/v1/stats?design=beta",
	} {
		if code, body = do(t, h, http.MethodGet, path, nil); code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, code, body)
		}
	}
	// Unscoped slowlog/explain with two residents must also refuse.
	if code, _ = do(t, h, http.MethodGet, "/debug/slowlog", nil); code != http.StatusBadRequest {
		t.Fatalf("unscoped slowlog = %d, want 400", code)
	}
	if code, _ = do(t, h, http.MethodGet, "/v1/access/explain?inst=x&pin=y", nil); code != http.StatusBadRequest {
		t.Fatalf("unscoped explain = %d, want 400", code)
	}
	// The X-Design header scopes too.
	req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+inst, nil)
	req.Header.Set("X-Design", "alpha")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("X-Design scoped query = %d", rec.Code)
	}

	// Listing reflects both; /readyz reports both ready.
	code, body = do(t, h, http.MethodGet, "/v1/designs", nil)
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || len(list.Designs) != 2 || list.Resident != 2 {
		t.Fatalf("list = %d %+v", code, list)
	}
	if code, body = do(t, h, http.MethodGet, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}

	// Delete beta: gone from the registry, queries unambiguous again.
	if code, body = do(t, h, http.MethodDelete, "/v1/designs/beta", nil); code != http.StatusOK {
		t.Fatalf("delete = %d: %s", code, body)
	}
	if code, _ = do(t, h, http.MethodDelete, "/v1/designs/beta", nil); code != http.StatusNotFound {
		t.Fatalf("double delete = %d, want 404", code)
	}
	if code, _ = do(t, h, http.MethodGet, "/v1/access?inst="+inst, nil); code != http.StatusOK {
		t.Fatalf("query after delete = %d, want 200 (unambiguous again)", code)
	}
}

func TestManagerUploadCap(t *testing.T) {
	m := newTestManager(t, ManagerConfig{MaxUploadBytes: 128})
	h := m.Handler()
	big := []byte(`{"id":"a","case":"pao_test1","lef":"` + strings.Repeat("x", 512) + `"}`)
	code, body := do(t, h, http.MethodPost, "/v1/designs", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register = %d, want 413: %s", code, body)
	}
}

// TestBulkheadIsolation is the acceptance test: drive design A's breaker open
// with a panic storm, saturate its (single-slot, zero-queue) admission, and
// require design B's concurrent traffic to stay 200/ready with zero shed —
// under -race.
func TestBulkheadIsolation(t *testing.T) {
	m := newTestManager(t, ManagerConfig{
		WarmWait: 5 * time.Second,
		Design:   Config{BreakerThreshold: 3, BreakerCooldown: time.Hour, QueueDepth: 64},
	})
	dA := registerTestDesign(t, m, "storm", func(c *Config) {
		c.MaxInFlight = 1
		c.QueueDepth = 0
	})
	dB := registerTestDesign(t, m, "calm", nil)
	h := m.Handler()
	srvA := m.ServerFor("storm")

	// One long-blocked query saturates A's single slot so every later A
	// query sheds 503 while B must keep serving.
	block := make(chan struct{})
	var plugOnce sync.Once
	srvA.FaultHook = func(site, detail string) {
		if site == SiteQuery {
			plugOnce.Do(func() { <-block })
		}
	}

	// Plug A's slot.
	plugged := make(chan int, 1)
	go func() {
		code, _ := do(t, h, http.MethodGet, "/v1/access?design=storm&inst="+dA.Instances[0].Name, nil)
		plugged <- code
	}()
	waitFor(t, func() bool {
		srvA.adm.mu.Lock()
		defer srvA.adm.mu.Unlock()
		return srvA.adm.inflight == 1
	})

	// Concurrently: A gets shed 503s (queue 0, slot busy), B serves clean.
	const n = 40
	var wg sync.WaitGroup
	bCodes := make(chan int, n)
	aCodes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := dB.Instances[i%len(dB.Instances)]
			code, body := do(t, h, http.MethodGet, "/v1/access?design=calm&inst="+inst.Name, nil)
			if code != http.StatusOK {
				t.Errorf("calm query = %d: %s", code, body)
			}
			bCodes <- code
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := do(t, h, http.MethodGet, "/v1/access?design=storm&inst="+dA.Instances[i%len(dA.Instances)].Name, nil)
			aCodes <- code
		}(i)
	}
	wg.Wait()
	close(bCodes)
	close(aCodes)
	for code := range bCodes {
		if code != http.StatusOK {
			t.Fatalf("design B shed/errored (%d) during design A's storm: bulkhead leak", code)
		}
	}
	shedA := 0
	for code := range aCodes {
		if code == http.StatusServiceUnavailable {
			shedA++
		}
	}
	if shedA == 0 {
		t.Fatal("design A never shed; storm did not saturate its bulkhead")
	}

	// Trip A's breaker via panic storm on re-analysis... simpler: direct
	// breaker failures, which is what recovered query panics do.
	for i := 0; i < 3; i++ {
		srvA.brk.failure()
	}
	if srvA.Breaker() != BreakerOpen {
		t.Fatalf("storm breaker = %v, want open", srvA.Breaker())
	}

	// Per-design readiness: A 503, B 200, process-level readyz still 200.
	if code, body := do(t, h, http.MethodGet, "/readyz?design=storm", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz storm = %d, want 503: %s", code, body)
	}
	if code, body := do(t, h, http.MethodGet, "/readyz?design=calm", nil); code != http.StatusOK {
		t.Fatalf("readyz calm = %d, want 200: %s", code, body)
	}
	if code, body := do(t, h, http.MethodGet, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("process readyz = %d, want 200 (one broken bulkhead must not pull the node): %s", code, body)
	}

	// B's tenant counters saw zero shed; A's saw the storm.
	if got := m.ServerFor("calm").tShed.With("default").Load(); got != 0 {
		t.Fatalf("calm shed = %d, want 0", got)
	}
	if got := srvA.tShed.With("default").Load(); got == 0 {
		t.Fatal("storm shed counter = 0, want > 0")
	}
	// Release the plugged query; it must complete normally.
	close(block)
	if code := <-plugged; code != http.StatusOK {
		t.Fatalf("plugged query = %d after release, want 200", code)
	}
}

func TestBulkheadPanicStormIsolated(t *testing.T) {
	// An unbounded wait queue: each design's own 20 concurrent queries must
	// wait for its NumCPU slots, not shed, whatever the host's core count.
	m := newTestManager(t, ManagerConfig{WarmWait: 5 * time.Second, Design: Config{QueueDepth: -1}})
	dA := registerTestDesign(t, m, "panicky", nil)
	dB := registerTestDesign(t, m, "healthy", nil)
	h := m.Handler()
	m.ServerFor("panicky").FaultHook = func(site, detail string) {
		if site == SiteQuery {
			panic("injected: " + detail)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := do(t, h, http.MethodGet, "/v1/access?design=panicky&inst="+dA.Instances[i%len(dA.Instances)].Name, nil)
			if code != http.StatusInternalServerError {
				t.Errorf("panicky query = %d, want 500 (recovered panic)", code)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := do(t, h, http.MethodGet, "/v1/access?design=healthy&inst="+dB.Instances[i%len(dB.Instances)].Name, nil)
			if code != http.StatusOK {
				t.Errorf("healthy query = %d during panic storm: %s", code, body)
			}
		}(i)
	}
	wg.Wait()
	// The storm design recovered every panic; the healthy design's registry
	// entry never saw one.
	if got := m.ServerFor("panicky").reg().Counter("serve.panics").Load(); got < 20 {
		t.Fatalf("panicky serve.panics = %d, want >= 20", got)
	}
	if got := m.ServerFor("healthy").reg().Counter("serve.panics").Load(); got != 0 {
		t.Fatalf("healthy serve.panics = %d, want 0", got)
	}
}

// TestManagerMetricsLabeled registers one generated design twice under
// different IDs without renaming it: every labeled family must carry the
// registry ID, or the two bulkheads emit the same series and the exposition
// keeps only one of them.
func TestManagerMetricsLabeled(t *testing.T) {
	m := newTestManager(t, ManagerConfig{WarmWait: 5 * time.Second})
	d1, d2 := serveDesign(t), serveDesign(t)
	for id, d := range map[string]*db.Design{"m1": d1, "m2": d2} {
		if _, err := m.RegisterDesign(context.Background(), id, d, m.paoCfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	h := m.Handler()
	for id, n := range map[string]int{"m1": 3, "m2": 1} {
		for i := 0; i < n; i++ {
			if code, _ := do(t, h, http.MethodGet, "/v1/access?design="+id+"&inst="+d1.Instances[0].Name, nil); code != http.StatusOK {
				t.Fatalf("query %s = %d", id, code)
			}
		}
	}
	code, body := do(t, h, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	scrape, err := obs.CheckProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for series, want := range map[string]float64{
		`pao_queries_total{design="m1",status="ok"}`:                3,
		`pao_queries_total{design="m2",status="ok"}`:                1,
		`serve_tenant_admitted_total{design="m1",tenant="default"}`: 3,
		`serve_tenant_admitted_total{design="m2",tenant="default"}`: 1,
		`pao_query_seconds_count{design="m2"}`:                      1,
		`pao_step_seconds_count{design="m2",step="total"}`:          1,
		`serve_resident_designs`:                                    2,
	} {
		if got, ok := scrape.Series[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	m := newTestManager(t, ManagerConfig{WarmWait: 5 * time.Second})
	d := registerTestDesign(t, m, "batchy", nil)
	h := m.Handler()

	names := []string{d.Instances[0].Name, d.Instances[1].Name, "no_such_instance"}
	body, _ := json.Marshal(BatchRequest{Instances: names})
	code, out := do(t, h, http.MethodPost, "/v1/access/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, out)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || len(resp.Answers) != 3 {
		t.Fatalf("batch count = %+v", resp)
	}
	if resp.Answers[0].Inst != names[0] || resp.Answers[0].Error != "" || len(resp.Answers[0].Pins) == 0 {
		t.Fatalf("answer 0 = %+v", resp.Answers[0])
	}
	if resp.Answers[2].Error == "" {
		t.Fatalf("unknown instance must answer a per-item error: %+v", resp.Answers[2])
	}
	// The batch's single answers must equal the per-query endpoint's.
	single := QueryResponse{}
	code, out = do(t, h, http.MethodGet, "/v1/access?inst="+names[0], nil)
	if code != http.StatusOK {
		t.Fatalf("single = %d", code)
	}
	if err := json.Unmarshal(out, &single); err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", resp.Answers[0].QueryResponse), fmt.Sprintf("%+v", single); a != b {
		t.Fatalf("batch answer diverges from single query:\n%s\n%s", a, b)
	}

	// Parsing hardening: empty batch, bad method (TestBatchCapChargesNothing
	// covers the oversized batch).
	if code, _ = do(t, h, http.MethodPost, "/v1/access/batch", []byte(`{"instances":[]}`)); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
	if code, _ = do(t, h, http.MethodGet, "/v1/access/batch", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch = %d, want 405", code)
	}
	// Batch is admission-charged per instance: tenant counter moved by 3.
	if got := m.ServerFor("batchy").reg().Counter("serve.batch.instances").Load(); got != 3 {
		t.Fatalf("serve.batch.instances = %d, want 3", got)
	}
}

// TestBatchCapChargesNothing: a batch one instance over the cap answers 400
// before admission, so the tenant's token bucket keeps its whole burst.
func TestBatchCapChargesNothing(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{RatePerSec: 1, Burst: 2}})
	s := oneDesign(t, m, d, nil)
	s.now = func() time.Time { return time.Unix(3000, 0) } // no refill
	h := m.Handler()

	big := make([]string, maxBatch+1)
	for i := range big {
		big[i] = d.Instances[i%len(d.Instances)].Name
	}
	body, _ := json.Marshal(BatchRequest{Instances: big})
	if code, out := do(t, h, http.MethodPost, "/v1/access/batch", body); code != http.StatusBadRequest {
		t.Fatalf("batch of %d = %d, want 400: %s", len(big), code, out)
	}
	inst := d.Instances[0].Name
	for i := 0; i < 2; i++ {
		if code, out := do(t, h, http.MethodGet, "/v1/access?inst="+inst, nil); code != http.StatusOK {
			t.Fatalf("query %d after the rejected batch = %d, want 200 (bucket charged?): %s", i, code, out)
		}
	}
	if code, _ := do(t, h, http.MethodGet, "/v1/access?inst="+inst, nil); code != http.StatusTooManyRequests {
		t.Fatalf("query past the burst = %d, want 429", code)
	}
}
