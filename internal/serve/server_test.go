package serve

// White-box bulkhead tests, driven through a one-design Manager: the
// injectable clock (s.now) drives the rate limiter and circuit breaker
// deterministically, and the nil-by-default fault hooks stand in for crashes,
// slow queries and broken disks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/suite"
)

func serveDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testID is the registry ID of the one-design managers below.
const testID = "d1"

// oneDesign registers d as m's only design and returns its bulkhead. With one
// design registered, m.Handler() resolves requests without ?design=, so tests
// use bare per-design URLs. Hooks that must fire during registration go on m
// beforehand; the design keeps its generated name, so metric labels must
// carry testID, not d.Name.
func oneDesign(t *testing.T, m *Manager, d *db.Design, opts *RegisterOptions) *Server {
	t.Helper()
	s, err := m.RegisterDesign(context.Background(), testID, d, m.paoCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, path string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, rec.Result().Header, body
}

func queryInst(t *testing.T, h http.Handler, name string) (int, QueryResponse, []byte) {
	t.Helper()
	code, _, body := get(t, h, "/v1/access?inst="+name)
	var resp QueryResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad query JSON: %v\n%s", err, body)
		}
	}
	return code, resp, body
}

func TestServeQueryBasics(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, nil)
	h := m.Handler()

	inst := d.Instances[0]
	code, resp, _ := queryInst(t, h, inst.Name)
	if code != http.StatusOK {
		t.Fatalf("query = %d, want 200", code)
	}
	if resp.Inst != inst.Name || resp.Source != "recompute" {
		t.Fatalf("bad response header fields: %+v", resp)
	}
	if resp.Degraded || resp.Status != "ok" {
		t.Fatalf("healthy design answered degraded: %+v", resp)
	}
	if len(resp.Pins) == 0 {
		t.Fatal("no pins in answer")
	}
	// Coordinates must match the library's own oracle answer.
	res := s.Result()
	for _, pa := range resp.Pins {
		pin := inst.Master.PinByName(pa.Pin)
		ap := res.AccessPointFor(inst, pin)
		if ap == nil {
			if !pa.Fallback && !pa.Failed {
				t.Fatalf("pin %s: server invented an AP", pa.Pin)
			}
			continue
		}
		if pa.X != ap.Pos.X || pa.Y != ap.Pos.Y || pa.Layer != ap.Layer {
			t.Fatalf("pin %s: served (%d,%d,M%d), oracle %v", pa.Pin, pa.X, pa.Y, pa.Layer, ap)
		}
	}

	if code, _, _ := queryInst(t, h, "no_such_instance"); code != http.StatusNotFound {
		t.Fatalf("unknown instance = %d, want 404", code)
	}
	if code, _, body := get(t, h, "/v1/access"); code != http.StatusBadRequest {
		t.Fatalf("missing inst = %d (%s), want 400", code, body)
	}
}

// TestServeDegradedAnswers is the acceptance scenario: a fault-injected,
// quarantined class answers 200 with degraded fallback points — never a 500.
func TestServeDegradedAnswers(t *testing.T) {
	d := serveDesign(t)
	sig := d.UniqueInstances()[0].Signature()
	m := newTestManager(t, ManagerConfig{})
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Detail: sig, Kind: faultinject.Panic, Note: "quarantine",
	})
	m.PaoFaultHook = inj.SiteHook()
	s := oneDesign(t, m, d, nil)
	if inj.FiredCount() == 0 {
		t.Fatal("fault never fired")
	}
	h := m.Handler()

	queried := 0
	for _, inst := range d.Instances {
		if d.InstanceSignature(inst) != sig {
			continue
		}
		queried++
		code, resp, body := queryInst(t, h, inst.Name)
		if code != http.StatusOK {
			t.Fatalf("quarantined class query = %d (%s), want 200", code, body)
		}
		if !resp.Degraded || resp.Status != "failed" {
			t.Fatalf("quarantined class not marked degraded: %+v", resp)
		}
		for _, pa := range resp.Pins {
			if !pa.Fallback && !pa.Failed {
				t.Fatalf("degraded answer pin %s not marked fallback", pa.Pin)
			}
			if pa.Fallback && pa.Layer == 0 {
				t.Fatalf("fallback pin %s has no geometry", pa.Pin)
			}
		}
	}
	if queried == 0 {
		t.Fatal("no instances in the quarantined class")
	}
	if got := s.reg().Counter("serve.degraded.answers").Load(); got != int64(queried) {
		t.Errorf("serve.degraded.answers = %d, want %d", got, queried)
	}

	// Healthy classes still answer normally.
	for _, inst := range d.Instances {
		if d.InstanceSignature(inst) == sig {
			continue
		}
		code, resp, _ := queryInst(t, h, inst.Name)
		if code != http.StatusOK || resp.Degraded {
			t.Fatalf("healthy class degraded by neighbor fault: %d %+v", code, resp)
		}
		break
	}
}

func TestServeRateLimit(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{RatePerSec: 1, Burst: 1}})
	s := oneDesign(t, m, d, nil)
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	h := m.Handler()
	inst := d.Instances[0].Name

	if code, _, _ := queryInst(t, h, inst); code != http.StatusOK {
		t.Fatalf("first query = %d, want 200", code)
	}
	code, hdr, _ := get(t, h, "/v1/access?inst="+inst)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second query = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if got := s.reg().Counter("serve.shed.rate").Load(); got != 1 {
		t.Errorf("serve.shed.rate = %d, want 1", got)
	}
	clock = clock.Add(2 * time.Second) // refill
	if code, _, _ := queryInst(t, h, inst); code != http.StatusOK {
		t.Fatalf("post-refill query = %d, want 200", code)
	}
}

// TestServeQueueShed saturates the single execution slot with a blocked
// query; with QueueDepth 0 the next request must shed 503 immediately.
func TestServeQueueShed(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{MaxInFlight: 1, QueueDepth: 0}})
	blocker := d.Instances[0].Name
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	m.FaultHook = func(site, detail string) {
		if site == SiteQuery && detail == blocker {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	s := oneDesign(t, m, d, nil)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/access?inst=" + blocker)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("blocker got %d", resp.StatusCode)
			}
		}
		errc <- err
	}()
	<-entered // slot is now held

	resp, err := http.Get(ts.URL + "/v1/access?inst=" + d.Instances[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload query = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := s.reg().Counter("serve.shed.queue").Load(); got != 1 {
		t.Errorf("serve.shed.queue = %d, want 1", got)
	}
}

// TestServeQueryPanicRecovered: an injected handler panic answers 500 once,
// trips the breaker at its threshold, and never kills the server.
func TestServeQueryPanicRecovered(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{BreakerThreshold: 2, BreakerCooldown: time.Minute}})
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: SiteQuery, Kind: faultinject.Panic, Note: "boom",
	})
	m.FaultHook = inj.SiteHook()
	s := oneDesign(t, m, d, nil)
	h := m.Handler()
	inst := d.Instances[0].Name

	for i := 0; i < 2; i++ {
		code, _, _ := get(t, h, "/v1/access?inst="+inst)
		if code != http.StatusInternalServerError {
			t.Fatalf("panicking query %d = %d, want 500", i, code)
		}
	}
	if s.Breaker() != BreakerOpen {
		t.Fatalf("breaker = %v after %d panics, want open", s.Breaker(), 2)
	}
	if code, _, _ := get(t, h, "/readyz?design="+testID); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker = %d, want 503", code)
	}
	if got := s.reg().Counter("serve.panics").Load(); got != 2 {
		t.Errorf("serve.panics = %d, want 2", got)
	}
}

// TestServeWarmRestart: a second manager over the same design restores from
// the first one's snapshot without recomputing and answers identically.
func TestServeWarmRestart(t *testing.T) {
	d := serveDesign(t)
	snap := filepath.Join(t.TempDir(), "oracle.snap")

	m1 := newTestManager(t, ManagerConfig{})
	s1 := oneDesign(t, m1, d, &RegisterOptions{SnapshotPath: snap})
	if err := s1.WriteSnapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerConfig{})
	s2 := oneDesign(t, m2, d, &RegisterOptions{SnapshotPath: snap})
	if s2.Source() != "snapshot" {
		t.Fatalf("second server source = %q, want snapshot", s2.Source())
	}
	if got := s2.reg().Counter("serve.restart.recompute").Load(); got != 0 {
		t.Fatalf("warm restart recomputed anyway (%d)", got)
	}
	if got := s2.reg().Counter("serve.restart.warm").Load(); got != 1 {
		t.Fatalf("serve.restart.warm = %d, want 1", got)
	}

	h1, h2 := m1.Handler(), m2.Handler()
	for _, inst := range d.Instances {
		_, r1, _ := queryInst(t, h1, inst.Name)
		_, r2, _ := queryInst(t, h2, inst.Name)
		r1.Source, r2.Source = "", "" // the only legitimate difference
		b1, _ := json.Marshal(r1)
		b2, _ := json.Marshal(r2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: answers differ after warm restart:\n%s\n%s", inst.Name, b1, b2)
		}
	}
}

// TestServeWarmRestartEditedLibrary: a restart under the same ID with a
// corrected library (one pin shifted by an M1 pitch) must recompute, not
// serve the access points analyzed against the old pin.
func TestServeWarmRestartEditedLibrary(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	m1 := newTestManager(t, ManagerConfig{})
	s1 := oneDesign(t, m1, serveDesign(t), &RegisterOptions{SnapshotPath: snap})
	if err := s1.WriteSnapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	d := serveDesign(t)
	pitch := d.Tech.Metal(1).Pitch
	for i := range d.MasterByName("NOR2X1").PinByName("A").Shapes {
		r := &d.MasterByName("NOR2X1").PinByName("A").Shapes[i].Rect
		*r = geom.R(r.XL+pitch, r.YL, r.XH+pitch, r.YH)
	}
	m2 := newTestManager(t, ManagerConfig{})
	s2 := oneDesign(t, m2, d, &RegisterOptions{SnapshotPath: snap})
	if s2.Source() != "recompute" {
		t.Fatalf("source after a library edit = %q, want recompute", s2.Source())
	}
	if got := s2.reg().Counter("serve.restart.recompute").Load(); got != 1 {
		t.Fatalf("serve.restart.recompute = %d, want 1", got)
	}
}

// TestServeCorruptSnapshotFallsBack: all three corruption modes (truncation,
// bit flip, foreign file) must end in a successful recompute, not an error.
func TestServeCorruptSnapshotFallsBack(t *testing.T) {
	d := serveDesign(t)
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	s1 := oneDesign(t, newTestManager(t, ManagerConfig{}), d, &RegisterOptions{SnapshotPath: snap})
	if err := s1.WriteSnapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string][]byte{
		"truncated": good[:len(good)/3],
		"bitflip":   append(append([]byte{}, good[:len(good)/2]...), append([]byte{good[len(good)/2] ^ 1}, good[len(good)/2+1:]...)...),
		"garbage":   []byte("not a snapshot at all"),
	}
	for name, data := range mutations {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(snap, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m := newTestManager(t, ManagerConfig{})
			s := oneDesign(t, m, d, &RegisterOptions{SnapshotPath: snap})
			if s.Source() != "recompute" {
				t.Fatalf("source = %q, want recompute", s.Source())
			}
			if got := s.reg().Counter("serve.snapshot.corrupt").Load(); got == 0 {
				t.Error("serve.snapshot.corrupt not counted")
			}
			if code, resp, _ := queryInst(t, m.Handler(), d.Instances[0].Name); code != 200 || resp.Degraded {
				t.Fatalf("recomputed server unhealthy: %d %+v", code, resp)
			}
		})
	}
}

// TestServeSnapshotChoicesOutOfRange: a checksummed snapshot whose pattern
// choices point past their pins' access points must be rejected when it is
// uploaded, and the design recomputed, never served into index-out-of-range
// 500s.
func TestServeSnapshotChoicesOutOfRange(t *testing.T) {
	d := serveDesign(t)
	res := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	bad := *res
	bad.Unique = nil
	for _, ua := range res.Unique {
		cp := *ua
		cp.Patterns = nil
		for _, p := range ua.Patterns {
			choice := make([]int, len(p.Choice))
			for i := range choice {
				choice[i] = 999
			}
			cp.Patterns = append(cp.Patterns, &pao.AccessPattern{Choice: choice, Cost: p.Cost})
		}
		bad.Unique = append(bad.Unique, &cp)
	}
	var snap bytes.Buffer
	if err := pao.EncodeSnapshot(&snap, d, pao.DefaultConfig(), &bad); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, ManagerConfig{})
	s := oneDesign(t, m, d, &RegisterOptions{Snapshot: snap.Bytes()})
	if got := m.reg().Counter("serve.register.snapshot_rejected").Load(); got != 1 {
		t.Fatalf("serve.register.snapshot_rejected = %d, want 1", got)
	}
	if s.Source() != "recompute" {
		t.Fatalf("source = %q, want recompute", s.Source())
	}
	h := m.Handler()
	for _, inst := range d.Instances {
		if code, _, body := queryInst(t, h, inst.Name); code != http.StatusOK {
			t.Fatalf("%s: %d %s", inst.Name, code, body)
		}
	}
}

// TestServeSnapshotWriteRetry: a one-shot injected panic in the write path is
// absorbed by the retry policy and the snapshot still lands.
func TestServeSnapshotWriteRetry(t *testing.T) {
	d := serveDesign(t)
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	m := newTestManager(t, ManagerConfig{})
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: SiteSnapshotWrite, Call: 1, Kind: faultinject.Panic, Note: "disk hiccup",
	})
	m.FaultHook = inj.SiteHook()
	s := oneDesign(t, m, d, &RegisterOptions{SnapshotPath: snap})
	if err := s.WriteSnapshot(context.Background()); err != nil {
		t.Fatalf("write with transient fault failed: %v", err)
	}
	if inj.FiredCount() != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.FiredCount())
	}
	if _, err := pao.ReadSnapshotFile(snap, d, pao.DefaultConfig()); err != nil {
		t.Fatalf("snapshot unreadable after retry: %v", err)
	}
}

// TestServeReadyFlips walks /readyz?design= through the full lifecycle: not
// ready while evicted (no result loaded), ready after a query warms it, not
// ready while the breaker is open following a failing background
// re-analysis, ready again after a clean probe.
func TestServeReadyFlips(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{
		WarmWait: 10 * time.Second,
		Design:   Config{BreakerThreshold: 1, BreakerCooldown: 10 * time.Second},
	})
	s := oneDesign(t, m, d, nil)
	clock := time.Unix(5000, 0)
	var clockMu sync.Mutex
	s.now = func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	h := m.Handler()
	ready := func() int {
		code, _, _ := get(t, h, "/readyz?design="+testID)
		return code
	}

	if err := m.EvictDesign(context.Background(), testID); err != nil {
		t.Fatal(err)
	}
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Fatalf("evicted readyz = %d, want 503", code)
	}
	if code, _, body := queryInst(t, h, d.Instances[0].Name); code != http.StatusOK {
		t.Fatalf("warming query = %d (%s), want 200", code, body)
	}
	if code := ready(); code != http.StatusOK {
		t.Fatalf("warm readyz = %d, want 200", code)
	}

	// Poison background re-analysis: every class panics, Health collects
	// errors, the breaker (threshold 1) trips open.
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Kind: faultinject.Panic, Note: "poison",
	})
	s.PaoFaultHook = inj.SiteHook()
	req := httptest.NewRequest(http.MethodPost, "/v1/reanalyze", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("reanalyze = %d, want 202", rec.Code)
	}
	waitFor(t, func() bool { return s.Breaker() == BreakerOpen })
	if code := ready(); code != http.StatusServiceUnavailable {
		t.Fatal("readyz still ready with breaker open")
	}
	// The poisoned result must NOT have replaced the healthy one.
	if code, resp, _ := queryInst(t, h, d.Instances[0].Name); code != 200 || resp.Degraded {
		t.Fatalf("stale-but-valid result was replaced: %d %+v", code, resp)
	}

	// Breaker open: further re-analysis is rejected outright.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reanalyze", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("reanalyze with open breaker = %d, want 503", rec.Code)
	}

	// After the cooldown a clean probe closes the breaker again.
	clockMu.Lock()
	clock = clock.Add(11 * time.Second)
	clockMu.Unlock()
	s.PaoFaultHook = nil
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reanalyze", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("half-open probe = %d, want 202", rec.Code)
	}
	waitFor(t, func() bool { return s.Breaker() == BreakerClosed })
	if code := ready(); code != http.StatusOK {
		t.Fatal("readyz not ready after breaker closed")
	}
}

func TestServeHealthzAndMetricz(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{})
	oneDesign(t, m, d, nil)
	h := m.Handler()
	for i := 0; i < 3; i++ {
		queryInst(t, h, d.Instances[0].Name)
	}

	code, _, body := get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var hz ManagerHealthz
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if info := hz.Designs[testID]; hz.Status != "ok" || info.Breaker != "closed" || info.Source != "recompute" {
		t.Fatalf("bad healthz: %+v", hz)
	}

	// Query latency is the design-labeled pao_query_seconds histogram.
	_, _, body = get(t, h, "/metrics")
	scrape, err := obs.CheckProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	lat := fmt.Sprintf("pao_query_seconds_count{design=%q}", testID)
	if got := scrape.Series[lat]; got < 3 {
		t.Fatalf("%s = %v, want >= 3", lat, got)
	}

	code, _, body = get(t, h, "/metricz")
	if code != http.StatusOK || !strings.Contains(string(body), `pao.queries{status=\"ok\"}`) {
		t.Fatalf("metricz = %d, missing pao.queries:\n%s", code, body)
	}

	code, _, body = get(t, h, "/v1/stats")
	if code != http.StatusOK || !strings.Contains(string(body), "\"stats\"") {
		t.Fatalf("stats = %d:\n%s", code, body)
	}
}

// TestServeStartShutdown exercises the manager's real listener path end to
// end: per-design readiness over TCP, then a drain that leaves a final
// snapshot.
func TestServeStartShutdown(t *testing.T) {
	d := serveDesign(t)
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	m := newTestManager(t, ManagerConfig{Addr: "127.0.0.1:0"})
	oneDesign(t, m, d, &RegisterOptions{SnapshotPath: snap})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + m.Addr() + "/readyz?design=" + testID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz over TCP = %d", resp.StatusCode)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := pao.ReadSnapshotFile(snap, d, pao.DefaultConfig()); err != nil {
		t.Fatalf("no final snapshot after shutdown: %v", err)
	}
}

// TestServePeriodicSnapshotWithoutDir: the snapshot timer covers a design
// registered with its own snapshot path even when the manager has no
// snapshot directory, so a crash loses at most one interval of work.
func TestServePeriodicSnapshotWithoutDir(t *testing.T) {
	d := serveDesign(t)
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	m := newTestManager(t, ManagerConfig{Addr: "127.0.0.1:0", SnapshotInterval: 20 * time.Millisecond})
	oneDesign(t, m, d, &RegisterOptions{SnapshotPath: snap})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	waitFor(t, func() bool { _, err := os.Stat(snap); return err == nil })
	if _, err := pao.ReadSnapshotFile(snap, d, pao.DefaultConfig()); err != nil {
		t.Fatalf("periodic snapshot unreadable: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
