package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/serve"
	"repro/internal/suite"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("paoserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlags(t *testing.T) {
	// No initial design is allowed now: the registry starts empty and designs
	// arrive over POST /v1/designs.
	if o, err := parseFlags(newFlagSet(), nil); err != nil {
		t.Fatalf("empty registry start must parse: %v", err)
	} else if o.hasInitialDesign() {
		t.Fatal("no flags must mean no initial design")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-case", "pao_test1", "-lef", "a.lef", "-def", "a.def"}); err == nil {
		t.Fatal("both -case and -lef/-def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef"}); err == nil {
		t.Fatal("-lef without -def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-snapshot", "s.snap"}); err == nil {
		t.Fatal("-snapshot without an initial design must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-trace-sample", "1.5"}); err == nil {
		t.Fatal("out-of-range -trace-sample must be an error")
	}
	o, err := parseFlags(newFlagSet(), []string{"-case", "pao_test1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:8347" || o.queue != 64 || o.breakerThreshold != 3 ||
		o.requestTimeout != 5*time.Second || o.rate != 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o, err = parseFlags(newFlagSet(), []string{
		"-case", "pao_test2", "-scale", "0.02", "-seed", "9", "-addr", "127.0.0.1:0",
		"-snapshot", "s.snap", "-snapshot-interval", "1m", "-rate", "50", "-burst", "5",
		"-queue", "8", "-max-inflight", "2", "-breaker-threshold", "1", "-breaker-cooldown", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.caseName != "pao_test2" || o.seed != 9 || o.snapshotPath != "s.snap" ||
		o.snapshotInterval != time.Minute || o.rate != 50 || o.burst != 5 ||
		o.queue != 8 || o.maxInFlight != 2 || o.breakerThreshold != 1 {
		t.Errorf("parsed values wrong: %+v", o)
	}
}

func TestLoadDesignBadInputs(t *testing.T) {
	if _, err := loadDesign(&options{caseName: "nope"}); err == nil {
		t.Fatal("unknown case must be an error")
	}
	if _, err := loadDesign(&options{lefPath: "/nonexistent.lef", defPath: "/nonexistent.def"}); err == nil {
		t.Fatal("missing LEF must be an error")
	}
}

// smokeOptions is the shared server setup of the smoke test: a small suite
// testcase, ephemeral port, snapshotting on, admission bounds tight enough to
// be real but loose enough not to shed the test's own queries.
func smokeOptions(snap string, ready chan *serve.Manager) *options {
	return &options{
		caseName: "pao_test1", scale: 0.01, seed: 7,
		addr: "127.0.0.1:0", snapshotPath: snap,
		queue: 64, requestTimeout: 10 * time.Second, drainTimeout: 10 * time.Second,
		breakerThreshold: 3, breakerCooldown: 30 * time.Second,
		warmWait: 2 * time.Second,
		k:        3, obs: &obs.Flags{},
		log:     io.Discard,
		onReady: func(m *serve.Manager) { ready <- m },
	}
}

func queryAll(t *testing.T, base string, insts []string) map[string]serve.QueryResponse {
	t.Helper()
	out := make(map[string]serve.QueryResponse, len(insts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(insts))
	for _, name := range insts {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/access?inst=" + name)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
				return
			}
			var qr serve.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				errs <- fmt.Errorf("%s: %v", name, err)
				return
			}
			qr.Source = "" // provenance legitimately differs across restarts
			mu.Lock()
			out[name] = qr
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return out
}

// TestServeSmokeSIGTERMWarmRestart is the end-to-end acceptance scenario
// behind `make serve-smoke`: start the server on a suite testcase with one
// class quarantined by an injected fault, run concurrent queries (including
// the degraded class — 200s, never 500s), deliver a real SIGTERM, verify the
// clean drain + final snapshot, warm-restart a second server from that
// snapshot without recomputing, and require identical answers.
func TestServeSmokeSIGTERMWarmRestart(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	badSig := d.UniqueInstances()[0].Signature()
	var insts, badInsts []string
	for _, inst := range d.Instances {
		if len(insts) < 12 {
			insts = append(insts, inst.Name)
		}
		if d.InstanceSignature(inst) == badSig && len(badInsts) < 3 {
			badInsts = append(badInsts, inst.Name)
		}
	}
	insts = append(insts, badInsts...)
	snap := filepath.Join(t.TempDir(), "oracle.snap")

	// First server: quarantine badSig via an injected pipeline panic.
	ready := make(chan *serve.Manager, 1)
	opts := smokeOptions(snap, ready)
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Detail: badSig, Kind: faultinject.Panic, Note: "smoke",
	})
	opts.paoFaultHook = inj.SiteHook()
	done := make(chan error, 1)
	go func() { done <- run(opts) }()
	mgr1 := <-ready
	base1 := "http://" + mgr1.Addr()

	first := queryAll(t, base1, insts)
	for _, name := range badInsts {
		if qr := first[name]; !qr.Degraded {
			t.Fatalf("%s (quarantined class) not marked degraded: %+v", name, qr)
		}
	}

	// Real SIGTERM: drain, final snapshot, exit 0.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM shutdown returned %v, want nil (exit 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no final snapshot after SIGTERM: %v", err)
	}

	// Second server: must warm-restart from the snapshot (no fault hook
	// needed — the quarantine is persisted state) and answer identically.
	ready2 := make(chan *serve.Manager, 1)
	opts2 := smokeOptions(snap, ready2)
	done2 := make(chan error, 1)
	go func() { done2 <- run(opts2) }()
	mgr2 := <-ready2
	if src := mgr2.ServerFor(d.Name).Source(); src != "snapshot" {
		t.Fatalf("second server source = %q, want snapshot", src)
	}
	second := queryAll(t, "http://"+mgr2.Addr(), insts)
	for _, name := range insts {
		if !reflect.DeepEqual(first[name], second[name]) {
			a, _ := json.Marshal(first[name])
			b, _ := json.Marshal(second[name])
			t.Fatalf("%s: answer changed across warm restart:\n%s\n%s", name, a, b)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second server did not drain")
	}
}

// syncBuffer collects the server's structured log under a lock so the test
// can read it while the server is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTelemetrySmoke is the end-to-end scenario behind `make telemetry-smoke`:
// boot the server with tracing on, fire concurrent queries (correlation IDs
// attached) while scraping /metrics, and require that every scrape parses
// under the strict Prometheus checker, the explain endpoint audits a real
// decision, the slow log carries trace exemplars, /version reports the build,
// and the startup log line is valid structured JSON.
func TestTelemetrySmoke(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var logbuf syncBuffer
	ready := make(chan *serve.Manager, 1)
	opts := &options{
		caseName: "pao_test1", scale: 0.01, seed: 7,
		addr:  "127.0.0.1:0",
		queue: 64, requestTimeout: 10 * time.Second, drainTimeout: 10 * time.Second,
		breakerThreshold: 3, breakerCooldown: 30 * time.Second,
		warmWait:    2 * time.Second,
		traceSample: 1, slowlogSize: 256, slowThreshold: time.Nanosecond,
		logLevel: "debug",
		k:        3, obs: &obs.Flags{},
		log:     &logbuf,
		onReady: func(m *serve.Manager) { ready <- m },
	}
	done := make(chan error, 1)
	go func() { done <- run(opts) }()
	mgr := <-ready
	base := "http://" + mgr.Addr()

	// Startup line: one JSON object with the build info and design identity.
	var startup map[string]any
	for _, line := range strings.Split(logbuf.String(), "\n") {
		if strings.Contains(line, `"msg":"serving"`) {
			if err := json.Unmarshal([]byte(line), &startup); err != nil {
				t.Fatalf("startup log line is not JSON: %v\n%s", err, line)
			}
		}
	}
	if startup == nil {
		t.Fatalf("no 'serving' startup log line:\n%s", logbuf.String())
	}
	for _, key := range []string{"go_version", "design", "design_hash", "config", "addr"} {
		if v, ok := startup[key].(string); !ok || v == "" {
			t.Fatalf("startup line missing %q: %v", key, startup)
		}
	}

	const workers, iters = 4, 20
	var wg sync.WaitGroup
	errc := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < iters; i++ {
				inst := d.Instances[(w*iters+i)%len(d.Instances)]
				req, _ := http.NewRequest(http.MethodGet, base+"/v1/access?inst="+inst.Name, nil)
				corr := fmt.Sprintf("smoke-%d-%d", w, i)
				req.Header.Set("X-Correlation-Id", corr)
				resp, err := client.Do(req)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query = %d", resp.StatusCode)
					return
				}
				if got := resp.Header.Get("X-Correlation-Id"); got != corr {
					errc <- fmt.Errorf("corr echo = %q, want %q", got, corr)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				_, cerr := obs.CheckProm(resp.Body)
				resp.Body.Close()
				if cerr != nil {
					errc <- fmt.Errorf("scrape %d: %v", i, cerr)
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

	// Final scrape: every concurrent query must be accounted for.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.CheckProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	okSeries := fmt.Sprintf("pao_queries_total{design=%q,status=%q}", d.Name, "ok")
	if got := scrape.Series[okSeries]; got < workers*iters {
		t.Fatalf("%s = %v, want >= %d", okSeries, got, workers*iters)
	}

	// Explain a real pin through the live server.
	inst := d.Instances[0]
	pin := inst.Master.SignalPins()[0].Name
	resp, err = http.Get(base + "/v1/access/explain?inst=" + inst.Name + "&pin=" + pin)
	if err != nil {
		t.Fatal(err)
	}
	var exp serve.ExplainResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exp.APs) == 0 || exp.Pin != pin {
		t.Fatalf("explain audit empty: %+v", exp)
	}

	// Slow log: everything was sampled, so entries carry trace exemplars.
	resp, err = http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var slow serve.SlowLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slow.Entries) == 0 {
		t.Fatal("slow log empty after sampled queries")
	}
	for _, e := range slow.Entries {
		if e.Trace == nil || e.CorrID == "" {
			t.Fatalf("sampled slowlog entry lacks trace/corr: %+v", e)
		}
	}

	// Version: build identity plus the per-design registry.
	resp, err = http.Get(base + "/version")
	if err != nil {
		t.Fatal(err)
	}
	var ver struct {
		Build   cliutil.BuildInfo `json:"build"`
		Designs map[string]struct {
			DesignHash string `json:"design_hash"`
		} `json:"designs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ver.Designs[d.Name].DesignHash == "" || ver.Build.GoVersion == "" {
		t.Fatalf("bad /version: %+v", ver)
	}

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
	if !strings.Contains(logbuf.String(), `"msg":"clean shutdown"`) {
		t.Fatalf("no clean-shutdown log line:\n%s", logbuf.String())
	}
}

// TestRunCancelledDuringInit: a deadline during the initial analysis aborts
// startup with the cancellation error (exit 3) instead of serving garbage.
func TestRunCancelledDuringInit(t *testing.T) {
	opts := &options{
		caseName: "pao_test1", scale: 0.01, seed: 7,
		addr: "127.0.0.1:0", queue: 64,
		obs: &obs.Flags{}, log: io.Discard,
	}
	opts.run = &cliutil.RunFlags{Timeout: time.Nanosecond}
	err := run(opts)
	if !cliutil.Cancelled(err) {
		t.Fatalf("err = %v, want a context cancellation", err)
	}
	if cliutil.ExitCode(err) != 3 {
		t.Fatalf("exit code = %d, want 3", cliutil.ExitCode(err))
	}
}
