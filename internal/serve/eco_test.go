package serve

// ECO endpoint tests, including the concurrency contract: /v1/eco runs while
// access queries and metrics scrapes keep flowing, the copy-on-write swap is
// never observed torn, and degraded answers appear only for instances the ECO
// genuinely invalidated. Run with -race (the eco-difftest CI target does).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/pao"
	"repro/internal/telemetry"
)

func postECO(t *testing.T, h http.Handler, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/eco", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestServeECOApplyAndQuery(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()
	hashBefore := s.DesignHash()

	mover := d.Instances[0]
	victim := d.Instances[1]
	master := d.Instances[2].Master.Name
	body := fmt.Sprintf(`{"ops":[
		{"op":"move","inst":%q,"x":%d,"y":%d},
		{"op":"insert","inst":"eco_new","master":%q,"x":%d,"y":%d,"orient":"N"},
		{"op":"delete","inst":%q}
	]}`, mover.Name, mover.Pos.X+70, mover.Pos.Y,
		master, mover.Pos.X+7000, mover.Pos.Y, victim.Name)

	code, resp := postECO(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("eco status %d: %s", code, resp)
	}
	var er ECOResponse
	if err := json.Unmarshal(resp, &er); err != nil {
		t.Fatalf("bad eco JSON: %v\n%s", err, resp)
	}
	if er.Status != "applied" || er.Report == nil {
		t.Fatalf("eco response %+v", er)
	}
	if er.Report.Ops != 3 || er.Report.DeletedInstances != 1 {
		t.Errorf("report %+v", er.Report)
	}
	if er.Report.ReanalyzedClasses >= er.Report.TotalClasses {
		t.Errorf("reanalyzed %d of %d classes on a 3-op ECO; scoping is broken",
			er.Report.ReanalyzedClasses, er.Report.TotalClasses)
	}
	if s.Source() != "eco" {
		t.Errorf("source = %q, want eco", s.Source())
	}
	if er.DesignHash == hashBefore || s.DesignHash() == hashBefore {
		t.Error("design hash did not change after the ECO")
	}

	// The re-placed and inserted instances answer normally post-commit.
	for _, name := range []string{mover.Name, "eco_new"} {
		code, qr, body := queryInst(t, h, name)
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %s", name, code, body)
		}
		if qr.EcoPending {
			t.Errorf("query %s still eco_pending after commit", name)
		}
		if qr.Source != "eco" {
			t.Errorf("query %s source = %q, want eco", name, qr.Source)
		}
	}
	if code, _, _ := queryInst(t, h, victim.Name); code != http.StatusNotFound {
		t.Errorf("deleted instance query = %d, want 404", code)
	}

	// The merged result matches a fresh full analysis of the mutated design.
	fresh := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	if got, want := s.Result().Stats.Counts(), fresh.Stats.Counts(); got != want {
		t.Errorf("served stats diverge from fresh analysis:\nserved %+v\nfresh  %+v", got, want)
	}
}

// TestServeECOSkipsStepHistogram: an ECO swap runs no pipeline steps, so it
// must add no samples to pao_step_seconds, which records analysis runs only.
func TestServeECOSkipsStepHistogram(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()
	series := fmt.Sprintf("pao_step_seconds_count{design=%q,step=%q}", testID, "total")
	count := func() float64 {
		t.Helper()
		_, _, body := get(t, h, "/metrics")
		scrape, err := telemetry.CheckProm(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		v, ok := scrape.Series[series]
		if !ok {
			t.Fatalf("%s missing from the exposition", series)
		}
		return v
	}
	before := count()
	inst := d.Instances[0]
	body := fmt.Sprintf(`{"ops":[{"op":"move","inst":%q,"x":%d,"y":%d}]}`, inst.Name, inst.Pos.X+70, inst.Pos.Y)
	if code, resp := postECO(t, h, body); code != http.StatusOK {
		t.Fatalf("eco status %d: %s", code, resp)
	}
	if s.Source() != "eco" {
		t.Fatalf("source = %q, want eco", s.Source())
	}
	if after := count(); after != before {
		t.Errorf("%s = %v after an ECO, want %v", series, after, before)
	}
}

func TestServeECORejectsBadScripts(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()

	cases := []struct {
		name, body string
	}{
		{"not json", "{"},
		{"empty ops", `{"ops":[]}`},
		{"unknown op", `{"ops":[{"op":"teleport","inst":"a"}]}`},
		{"move missing coords", fmt.Sprintf(`{"ops":[{"op":"move","inst":%q}]}`, d.Instances[0].Name)},
		{"unknown instance", `{"ops":[{"op":"delete","inst":"no_such"}]}`},
		{"bad orient", fmt.Sprintf(`{"ops":[{"op":"insert","inst":"n","master":%q,"x":0,"y":0,"orient":"Q"}]}`, d.Instances[0].Master.Name)},
	}
	hash := s.DesignHash()
	for _, tc := range cases {
		if code, body := postECO(t, h, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		}
	}
	if req := httptest.NewRequest(http.MethodGet, "/v1/eco", nil); true {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/eco = %d, want 405", rec.Code)
		}
	}
	if s.DesignHash() != hash {
		t.Error("rejected scripts changed the design hash")
	}
	if s.Breaker() != BreakerClosed {
		t.Errorf("client errors tripped the breaker: %v", s.Breaker())
	}
	// The server still applies a good script afterwards.
	inst := d.Instances[0]
	body := fmt.Sprintf(`{"ops":[{"op":"move","inst":%q,"x":%d,"y":%d}]}`, inst.Name, inst.Pos.X+140, inst.Pos.Y)
	if code, resp := postECO(t, h, body); code != http.StatusOK {
		t.Fatalf("good script after rejections: %d %s", code, resp)
	}
}

// TestServeECOConcurrentQueries is the torn-read gate: an ECO commits while
// access queries and Prometheus scrapes hammer the server. Every query must
// answer cleanly (no 5xx), and only instances the ECO genuinely invalidated
// (signature-changing moves) may answer eco_pending fallbacks mid-window.
func TestServeECOConcurrentQueries(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{MaxInFlight: 16, QueueDepth: -1}})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()

	// Five instances moved by +70 in x: half an M2 pitch, so every one of
	// them changes signature and is genuinely dirty mid-ECO.
	moved := map[string]bool{}
	var ops []string
	for i := 0; i < 5; i++ {
		inst := d.Instances[i*3]
		moved[inst.Name] = true
		ops = append(ops, fmt.Sprintf(`{"op":"move","inst":%q,"x":%d,"y":%d}`,
			inst.Name, inst.Pos.X+70, inst.Pos.Y))
	}
	body := fmt.Sprintf(`{"ops":[%s]}`, strings.Join(ops, ","))

	// Sample a spread of query targets, movers included.
	var targets []string
	for i := 0; i < len(d.Instances); i += len(d.Instances)/20 + 1 {
		targets = append(targets, d.Instances[i].Name)
	}
	for name := range moved {
		targets = append(targets, name)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fail string
	report := func(f string, args ...any) {
		mu.Lock()
		if fail == "" {
			fail = fmt.Sprintf(f, args...)
		}
		mu.Unlock()
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := targets[(i+w)%len(targets)]
				req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+name, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					report("query %s: status %d: %s", name, rec.Code, rec.Body.String())
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
					report("query %s: torn JSON: %v", name, err)
					return
				}
				if qr.EcoPending && !moved[name] {
					report("query %s: eco_pending for an instance the ECO never touched", name)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // metrics scraper
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				report("metrics scrape: status %d", rec.Code)
				return
			}
		}
	}()

	code, resp := postECO(t, h, body)
	close(done)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("eco status %d: %s", code, resp)
	}
	if fail != "" {
		t.Fatal(fail)
	}

	// Post-commit: every mover answers normally again.
	for name := range moved {
		code, qr, body := queryInst(t, h, name)
		if code != http.StatusOK || qr.EcoPending {
			t.Errorf("post-eco query %s: code %d pending %v (%s)", name, code, qr.EcoPending, body)
		}
	}
	if n := s.reg().Counter("serve.eco.applied").Load(); n != 1 {
		t.Errorf("serve.eco.applied = %d, want 1", n)
	}
}
