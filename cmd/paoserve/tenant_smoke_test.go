package main

// TestTenantSmoke is the end-to-end scenario behind `make tenant-smoke`: one
// paoserve process serving three designs — one loaded at boot, two registered
// over POST /v1/designs — takes a flood-tenant storm into the deliberately
// tight bulkhead of one design while a steady tenant keeps querying the other
// two. The storm must shed (429/503, never 500) strictly inside its bulkhead:
// every steady query answers 200, every design stays ready, and the merged
// /metrics exposition parses strictly with per-design and per-tenant labels.
// Then an explicit evict + lazy warm restart must answer byte-identically,
// and SIGTERM must drain and snapshot every resident design.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/suite"
)

// postJSON fires a JSON POST and returns status + body.
func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// getCode fires a GET with optional tenant header and returns the status.
func getCode(t *testing.T, url, tenant string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if tenant != "" {
		req.Header.Set("X-Tenant-Id", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// queryDesign fetches one instance's answer with the design scope and tenant
// set, normalizing Source for across-restart comparison.
func queryDesign(t *testing.T, base, design, tenant, inst string) serve.QueryResponse {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet,
		base+"/v1/access?design="+design+"&inst="+inst, nil)
	req.Header.Set("X-Tenant-Id", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query %s/%s = %d: %s", design, inst, resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	qr.Source = ""
	return qr
}

func scrapeProm(t *testing.T, base string) *obs.PromScrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := obs.CheckProm(resp.Body)
	if err != nil {
		t.Fatalf("strict prometheus check failed: %v", err)
	}
	return scrape
}

func TestTenantSmoke(t *testing.T) {
	// Local replicas of all three designs, for instance names.
	spec := suite.Testcases[0].Scale(0.01)
	d0, err := suite.Generate(spec.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	dCalm, err := suite.Generate(spec.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	dStorm, err := suite.Generate(spec.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()

	ready := make(chan *serve.Manager, 1)
	opts := &options{
		caseName: "pao_test1", scale: 0.01, seed: 7,
		addr: "127.0.0.1:0", snapshotDir: snapDir,
		queue: 64, requestTimeout: 10 * time.Second, drainTimeout: 10 * time.Second,
		breakerThreshold: 3, breakerCooldown: 30 * time.Second,
		warmWait: 5 * time.Second, maxUpload: 32 << 20,
		k: 3, obs: &obs.Flags{},
		log:     io.Discard,
		onReady: func(m *serve.Manager) { ready <- m },
	}
	done := make(chan error, 1)
	go func() { done <- run(opts) }()
	mgr := <-ready
	base := "http://" + mgr.Addr()

	// Register two more designs at runtime. "storm" gets a deliberately tiny
	// bulkhead (one slot, no queue, tight rate) so the flood must shed there.
	code, body := postJSON(t, base+"/v1/designs",
		[]byte(`{"id":"calm2","case":"pao_test1","scale":0.01,"seed":11}`))
	if code != http.StatusCreated {
		t.Fatalf("register calm2 = %d: %s", code, body)
	}
	code, body = postJSON(t, base+"/v1/designs",
		[]byte(`{"id":"storm","case":"pao_test1","scale":0.01,"seed":13,"max_inflight":1,"queue":0,"rate":25,"burst":2}`))
	if code != http.StatusCreated {
		t.Fatalf("register storm = %d: %s", code, body)
	}

	// Storm: a flood tenant hammers "storm"'s tiny bulkhead while a steady
	// tenant queries the other two designs. Sheds (429/503) must stay inside
	// the storm bulkhead; the steady tenant sees only 200s.
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed, floodErrs, steadyBad := 0, 0, 0
	const floodWorkers, floodIters = 8, 30
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < floodIters; i++ {
				inst := dStorm.Instances[(w*floodIters+i)%len(dStorm.Instances)]
				switch getCode(t, base+"/v1/access?design=storm&inst="+inst.Name, "flood") {
				case http.StatusOK:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					mu.Lock()
					floodErrs++
					mu.Unlock()
				}
			}
		}(w)
	}
	const steadyIters = 25
	for _, target := range []struct {
		id string
		d  *db.Design
	}{{d0.Name, d0}, {"calm2", dCalm}} {
		target := target
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steadyIters; i++ {
				inst := target.d.Instances[i%len(target.d.Instances)]
				if code := getCode(t, base+"/v1/access?design="+target.id+"&inst="+inst.Name, "steady"); code != http.StatusOK {
					mu.Lock()
					steadyBad++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if floodErrs > 0 {
		t.Fatalf("flood saw %d unexpected statuses (want only 200/429/503)", floodErrs)
	}
	if shed == 0 {
		t.Fatal("flood was never shed; the storm bulkhead is not limiting")
	}
	if steadyBad > 0 {
		t.Fatalf("steady tenant saw %d non-200s during the storm (bulkhead leak)", steadyBad)
	}

	// Every design — including the stormed one — is still ready, and so is
	// the process.
	for _, id := range []string{d0.Name, "calm2", "storm"} {
		if code := getCode(t, base+"/readyz?design="+id, ""); code != http.StatusOK {
			t.Fatalf("readyz?design=%s = %d after storm", id, code)
		}
	}
	if code := getCode(t, base+"/readyz", ""); code != http.StatusOK {
		t.Fatal("process readyz not 200 after storm")
	}

	// The merged exposition parses strictly and carries the per-design and
	// per-tenant series the storm just exercised.
	scrape := scrapeProm(t, base)
	if v := scrape.Series[fmt.Sprintf("serve_tenant_shed_total{design=%q,tenant=%q}", "storm", "flood")]; int(v) != shed {
		t.Fatalf("serve_tenant_shed_total{storm,flood} = %v, want %d", v, shed)
	}
	if v := scrape.Series[fmt.Sprintf("serve_tenant_admitted_total{design=%q,tenant=%q}", "calm2", "steady")]; v < steadyIters {
		t.Fatalf("serve_tenant_admitted_total{calm2,steady} = %v, want >= %d", v, steadyIters)
	}
	if v := scrape.Series[fmt.Sprintf("pao_queries_total{design=%q,status=%q}", d0.Name, "ok")]; v < steadyIters {
		t.Fatalf("pao_queries_total{%s,ok} = %v, want >= %d", d0.Name, v, steadyIters)
	}
	if v := scrape.Series["serve_resident_designs"]; v != 3 {
		t.Fatalf("serve_resident_designs = %v, want 3", v)
	}

	// Explicit evict + lazy warm restart must not change a single answer.
	probe := []string{dCalm.Instances[0].Name, dCalm.Instances[1].Name, dCalm.Instances[2].Name}
	before := make(map[string]serve.QueryResponse, len(probe))
	for _, inst := range probe {
		before[inst] = queryDesign(t, base, "calm2", "steady", inst)
	}
	resp, err := http.Post(base+"/v1/designs/calm2/evict", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict calm2 = %d", resp.StatusCode)
	}
	for _, inst := range probe {
		after := queryDesign(t, base, "calm2", "steady", inst)
		if !reflect.DeepEqual(before[inst], after) {
			a, _ := json.Marshal(before[inst])
			b, _ := json.Marshal(after)
			t.Fatalf("%s: answer changed across evict/warm-restart:\n%s\n%s", inst, a, b)
		}
	}
	if src := mgr.ServerFor("calm2").Source(); src != "snapshot" {
		t.Fatalf("calm2 source after warm restart = %q, want snapshot", src)
	}
	scrape = scrapeProm(t, base)
	if v := scrape.Series["serve_evictions_total"]; v < 1 {
		t.Fatalf("serve_evictions_total = %v, want >= 1", v)
	}
	if v := scrape.Series["serve_warm_restarts_total"]; v < 1 {
		t.Fatalf("serve_warm_restarts_total = %v, want >= 1", v)
	}

	// SIGTERM: drain, snapshot every resident design, exit clean.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	for _, id := range []string{d0.Name, "calm2", "storm"} {
		snap := filepath.Join(snapDir, id+".snap")
		if _, err := os.Stat(snap); err != nil {
			t.Fatalf("design %s has no shutdown snapshot: %v", id, err)
		}
	}
}
