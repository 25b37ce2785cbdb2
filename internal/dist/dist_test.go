package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/suite"
)

func distDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// startWorker spins up an in-process worker server over its own copy of the
// design (regenerated from the same spec — the shared-volume model).
func startWorker(t *testing.T, cfg pao.Config) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(distDesign(t), cfg)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

func snapshotBytes(t *testing.T, d *db.Design, cfg pao.Config, res *pao.Result) []byte {
	t.Helper()
	res.Stats = res.Stats.Counts()
	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fastCoordinator returns a coordinator tuned for test latencies: quick
// retries, quick heartbeats, small shards so relocation has granularity.
func fastCoordinator(d *db.Design, cfg pao.Config, workers []string) *Coordinator {
	return &Coordinator{
		Design: d, Cfg: cfg, Workers: workers,
		Obs:            obs.NewObserver("test"),
		ShardClasses:   4,
		ShardClusters:  8,
		Retry:          cliutil.RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Jitter: 0.5},
		RequestTimeout: 5 * time.Second,
		HedgeAfter:     10 * time.Second, // effectively off unless a test lowers it
		HeartbeatEvery: 50 * time.Millisecond,
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := []byte("shard payload")
	framed := sealFrame(payload)
	got, err := openFrame(framed)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %q err %v", got, err)
	}
	for _, flip := range []int{0, len(frameMagic), len(framed) - 1} {
		bad := append([]byte(nil), framed...)
		bad[flip] ^= 0x01
		if _, err := openFrame(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", flip)
		}
	}
	if _, err := openFrame(framed[:10]); err == nil {
		t.Fatal("truncated frame not detected")
	}
}

// TestDistributedEquivalence is the core tentpole invariant: a two-worker
// distributed run produces a snapshot byte-identical to the single-process
// run.
func TestDistributedEquivalence(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())

	_, s1 := startWorker(t, cfg)
	_, s2 := startWorker(t, cfg)
	c := fastCoordinator(d, cfg, []string{s1.URL, s2.URL})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, d, cfg, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed snapshot differs from single-process: %d vs %d bytes", len(got), len(want))
	}

	m := c.Obs.Reg().Snapshot()
	if m.Counters["dist.shards.ok"] == 0 {
		t.Error("no shards completed through the dispatch path")
	}
	if m.Counters["dist.shards.local"] != 0 {
		t.Errorf("healthy fleet must not fall back locally, got %d local shards",
			m.Counters["dist.shards.local"])
	}
	okShards := 0
	for _, ws := range c.Fleet() {
		if !ws.Up {
			t.Errorf("worker %s not up after a clean run", ws.URL)
		}
		okShards += ws.ShardsOK
	}
	if okShards == 0 {
		t.Error("fleet view records no completed shards")
	}
}

// TestDistributedEquivalenceUnderFaults re-runs the invariant with the
// network fault injector tearing at the wire: dropped connections, corrupted
// responses and jittered delays on dispatch and response paths. The retry,
// corrupt-rejection and relocation machinery must absorb all of it without
// changing a byte of the answer.
func TestDistributedEquivalenceUnderFaults(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())

	_, s1 := startWorker(t, cfg)
	_, s2 := startWorker(t, cfg)
	inj := faultinject.New().
		Add(&faultinject.Fault{Site: SiteDispatch, Call: 1, Kind: faultinject.ConnDrop, Note: "first dispatch dropped"}).
		Add(&faultinject.Fault{Site: SiteDispatch, Call: 4, Kind: faultinject.ConnDrop}).
		Add(&faultinject.Fault{Site: SiteResponse, Call: 2, Kind: faultinject.Corrupt}).
		Add(&faultinject.Fault{Site: SiteResponse, Call: 5, Kind: faultinject.Corrupt}).
		Add(&faultinject.Fault{Site: SiteDispatch, Kind: faultinject.DelayJitter, Sleep: 2 * time.Millisecond, Jitter: 0.5, Call: 3}).
		Add(&faultinject.Fault{Site: SiteHeartbeat, Call: 1, Kind: faultinject.ConnDrop})
	c := fastCoordinator(d, cfg, []string{s1.URL, s2.URL})
	c.NetHook = inj.NetHook()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, d, cfg, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot under faults differs from single-process: %d vs %d bytes", len(got), len(want))
	}
	if inj.FiredCount() == 0 {
		t.Fatal("no faults fired; the test is vacuous")
	}
	m := c.Obs.Reg().Snapshot()
	if m.Counters["dist.shards.retried"] == 0 {
		t.Error("injected conn-drops must force retries")
	}
	if m.Counters["dist.response.corrupt"] == 0 {
		t.Error("injected corruption must be detected and counted")
	}
	if !res.Health.OK() {
		t.Errorf("network faults must degrade transport, never the result: %s", res.Health)
	}
}

// TestDistributedAllWorkersUnreachable pins graceful degradation: with every
// configured worker unreachable, the coordinator computes all shards locally
// and the answer is still byte-identical.
func TestDistributedAllWorkersUnreachable(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())

	// A server that is already closed: connection refused, instantly.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	c := fastCoordinator(d, cfg, []string{deadURL})
	c.Retry = cliutil.RetryPolicy{Attempts: 1}
	c.RequestTimeout = 500 * time.Millisecond
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, d, cfg, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("local-fallback snapshot differs: %d vs %d bytes", len(got), len(want))
	}
	m := c.Obs.Reg().Snapshot()
	if m.Counters["dist.shards.local"] == 0 {
		t.Error("unreachable fleet must fall back to local compute")
	}
	if !res.Health.OK() {
		t.Errorf("worker loss must not quarantine anything: %s", res.Health)
	}
}

// TestDistributedMismatchedWorkerExcluded: a worker serving a different
// design fails the identity probe, is never dispatched to, and the run
// completes correctly on the remaining fleet.
func TestDistributedMismatchedWorkerExcluded(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())

	other, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	wrong := httptest.NewServer(NewWorker(other, cfg).Handler())
	defer wrong.Close()
	_, good := startWorker(t, cfg)

	c := fastCoordinator(d, cfg, []string{wrong.URL, good.URL})
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, d, cfg, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot with mismatched worker differs: %d vs %d bytes", len(got), len(want))
	}
	var sawMismatch bool
	for _, ws := range c.Fleet() {
		if ws.URL == wrong.URL {
			sawMismatch = ws.Mismatch
			if ws.ShardsOK > 0 {
				t.Error("mismatched worker must never complete a shard")
			}
		}
	}
	if !sawMismatch {
		t.Error("fleet view must flag the mismatched worker")
	}
}

// TestDistributedHedgingFiresOnSlowWorker: a worker delayed far past the
// hedge delay loses the race to the hedged candidate; the run stays correct
// and the hedge counter records the event.
func TestDistributedHedgingFiresOnSlowWorker(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())

	slow, s1 := startWorker(t, cfg)
	// Delay every shard on worker 1 well past the hedge threshold.
	slowInj := faultinject.New().
		Add(&faultinject.Fault{Site: SiteWorkerShard, Kind: faultinject.Delay, Sleep: 400 * time.Millisecond})
	slow.FaultHook = slowInj.SiteHook()
	_, s2 := startWorker(t, cfg)

	c := fastCoordinator(d, cfg, []string{s1.URL, s2.URL})
	c.HedgeAfter = 30 * time.Millisecond
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotBytes(t, d, cfg, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("hedged snapshot differs: %d vs %d bytes", len(got), len(want))
	}
	if c.Obs.Reg().Snapshot().Counters["dist.shards.hedged"] == 0 {
		t.Error("a 400ms shard against a 30ms hedge threshold must hedge")
	}
}

// TestDistributedCancellation: cancelling the coordinator's context mid-run
// returns the context error and a partial result with Cancelled health, never
// a hang.
func TestDistributedCancellation(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	_, s1 := startWorker(t, cfg)
	c := fastCoordinator(d, cfg, []string{s1.URL})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run must return an error")
	}
	if res == nil || !res.Health.Cancelled() {
		t.Fatal("cancelled run must return a partial result with Cancelled health")
	}
}

func TestCoordinatorNoWorkersRunsLocally(t *testing.T) {
	d := distDesign(t)
	cfg := pao.DefaultConfig()
	want := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())
	c := &Coordinator{Design: d, Cfg: cfg}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, d, cfg, res); !bytes.Equal(got, want) {
		t.Fatal("zero-worker coordinator must match the single-process run")
	}
}

// TestWorkerSelectStatus: the worker answers a select payload that does not
// decode with 400 and a selection error with 500, and a valid shard with
// exactly the response the coordinator's local fallback computes.
func TestWorkerSelectStatus(t *testing.T) {
	cfg := pao.DefaultConfig()
	_, srv := startWorker(t, cfg)
	d := distDesign(t)
	classes := snapshotBytes(t, d, cfg, pao.NewAnalyzer(d, cfg).Run())
	key := pao.ClusterKey(d.Clusters()[0])
	request := func(keys []string, classes []byte) []byte {
		b, err := json.Marshal(selectRequest{Keys: keys, Classes: classes})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(payload []byte) (int, []byte) {
		resp, err := http.Post(srv.URL+pathSelect, "application/octet-stream", bytes.NewReader(sealFrame(payload)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int
	}{
		{"bad json", []byte("{"), http.StatusBadRequest},
		{"bad snapshot", request([]string{key}, []byte("not a snapshot")), http.StatusBadRequest},
		{"unknown cluster", request([]string{"cluster:nope"}, classes), http.StatusInternalServerError},
	} {
		if code, _ := post(tc.payload); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	body := request([]string{key}, classes)
	code, raw := post(body)
	if code != http.StatusOK {
		t.Fatalf("valid shard: status %d: %s", code, raw)
	}
	got, err := openFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	c := fastCoordinator(d, cfg, nil)
	local, err := c.localShard(context.Background(), &shard{phase: "select", keys: []string{key}, body: sealFrame(body)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("worker answered %s, local fallback computed %s", got, want)
	}
}
