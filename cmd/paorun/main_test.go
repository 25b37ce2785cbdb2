package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/dist"
	"repro/internal/lef"
	"repro/internal/obs"
	"repro/internal/pao"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("paorun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(newFlagSet(), nil); err == nil {
		t.Fatal("missing -lef/-def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef"}); err == nil {
		t.Fatal("missing -def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-bogus"}); err == nil {
		t.Fatal("unknown flag must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef", "-def", "a.def", "-distributed"}); err == nil {
		t.Fatal("-distributed without -workers-addr must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef", "-def", "a.def", "-workers-addr", "h:1"}); err == nil {
		t.Fatal("-workers-addr without -distributed must be an error")
	}
	o, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef", "-def", "a.def"})
	if err != nil {
		t.Fatal(err)
	}
	if o.k != 3 || o.workers != 1 || o.dump || o.noBCA || o.obs.Metrics != "off" {
		t.Errorf("defaults wrong: %+v obs=%+v", o, o.obs)
	}
	o, err = parseFlags(newFlagSet(), []string{
		"-lef", "a.lef", "-def", "a.def", "-k", "5", "-workers", "4",
		"-dump", "-nobca", "-metrics", "json", "-trace", "t.json"})
	if err != nil {
		t.Fatal(err)
	}
	if o.k != 5 || o.workers != 4 || !o.dump || !o.noBCA ||
		o.obs.Metrics != "json" || o.obs.TracePath != "t.json" {
		t.Errorf("parsed values wrong: %+v obs=%+v", o, o.obs)
	}
}

// TestRunMetricsAndTrace is the end-to-end smoke test: parse the generated
// LEF/DEF pair, run the analysis, and round-trip the -metrics json report and
// the -trace file through the obs types.
func TestRunMetricsAndTrace(t *testing.T) {
	lefPath, defPath := clitest.WriteLEFDEF(t, clitest.SmallSpec(), nil)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	opts := &options{
		lefPath: lefPath, defPath: defPath, dump: true, k: 3, workers: 2,
		obs: &obs.Flags{Metrics: "json", TracePath: tracePath, Out: &buf},
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}

	var rep obs.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("-metrics json output is not a Report: %v\n%s", err, buf.Bytes())
	}
	if rep.Name != "paorun" {
		t.Errorf("report name = %q", rep.Name)
	}
	if len(rep.Counters) == 0 {
		t.Error("report has no counters; the analyzer is not observed")
	}
	// The memoization layer must surface its traffic in -metrics: the
	// via-verdict cache counters are series of the run's registry.
	for _, name := range []string{"drc.viacache.hit", "drc.viacache.miss"} {
		if _, ok := rep.Counters[name]; !ok {
			t.Errorf("report missing cache counter %q", name)
		}
	}
	if rep.Trace == nil || len(rep.Trace.Children) == 0 {
		t.Fatalf("report has no span tree: %+v", rep.Trace)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var span obs.SpanExport
	if err := json.Unmarshal(data, &span); err != nil {
		t.Fatalf("-trace output is not a span tree: %v", err)
	}
	if span.Name != "paorun" || len(span.Children) == 0 {
		t.Errorf("trace root = %q with %d children", span.Name, len(span.Children))
	}
}

// TestDistSmokeRunMatchesLocal runs paorun end to end twice over the same
// LEF/DEF pair — once single-process, once -distributed against two in-process
// shard workers — and requires identical reports plus evidence in -metrics
// that shards actually crossed the wire. The DRC work is counted where it
// runs: the coordinator's failed-pin recount in the -metrics report, each
// worker's shards in that worker's observer.
func TestDistSmokeRunMatchesLocal(t *testing.T) {
	lefPath, defPath := clitest.WriteLEFDEF(t, clitest.SmallSpec(), nil)

	var local bytes.Buffer
	if err := run(&options{
		lefPath: lefPath, defPath: defPath, k: 3, workers: 2,
		obs: &obs.Flags{}, out: &local,
	}); err != nil {
		t.Fatal(err)
	}

	// Shard workers load the design from the same files, like paoworker does.
	servers := make([]string, 2)
	workers := make([]*dist.Worker, len(servers))
	for i := range servers {
		wopts := &options{lefPath: lefPath, defPath: defPath}
		d, err := loadWorkerDesign(wopts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pao.DefaultConfig()
		cfg.K = 3
		workers[i] = dist.NewWorker(d, cfg)
		workers[i].Obs = obs.NewObserver("paoworker")
		srv := httptest.NewServer(workers[i].Handler())
		t.Cleanup(srv.Close)
		servers[i] = srv.URL
	}

	var out, metrics bytes.Buffer
	if err := run(&options{
		lefPath: lefPath, defPath: defPath, k: 3, workers: 2,
		distributed: true, workersAddr: strings.Join(servers, ","),
		obs: &obs.Flags{Metrics: "json", Out: &metrics},
		out: &out,
	}); err != nil {
		t.Fatal(err)
	}
	if out.String() != local.String() {
		t.Errorf("distributed report differs from single-process:\n%s\nvs\n%s",
			out.String(), local.String())
	}
	var rep obs.Report
	if err := json.Unmarshal(metrics.Bytes(), &rep); err != nil {
		t.Fatalf("-metrics json output is not a Report: %v\n%s", err, metrics.Bytes())
	}
	if rep.Counters["dist.shards.ok"] == 0 {
		t.Error("distributed run dispatched no shards; the smoke test is vacuous")
	}
	if rep.Counters["dist.shards.local"] != 0 {
		t.Errorf("healthy workers must serve every shard, got %d local", rep.Counters["dist.shards.local"])
	}
	if rep.Counters["drc.via.attempted"] == 0 {
		t.Error("distributed -metrics report counted no via checks of the failed-pin recount")
	}
	for i, w := range workers {
		if n := w.Obs.Reg().Counter("drc.query.count").Load(); n == 0 {
			t.Errorf("worker %d observer counted no DRC queries", i)
		}
	}
}

// loadWorkerDesign mirrors cmd/paoworker's design loading for the in-process
// shard workers of the smoke test.
func loadWorkerDesign(opts *options) (*db.Design, error) {
	lf, err := os.Open(opts.lefPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	lib, err := lef.Parse(lf)
	if err != nil {
		return nil, err
	}
	df, err := os.Open(opts.defPath)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	return def.Parse(df, lib.Tech, lib.Masters)
}

func TestRunBadPath(t *testing.T) {
	opts := &options{lefPath: "/nonexistent.lef", defPath: "/nonexistent.def", obs: &obs.Flags{}}
	if err := run(opts); err == nil {
		t.Fatal("missing input files must be an error")
	}
}

// TestRunFailureFlushesProfileAndReport: a run that fails after Start — here
// on a missing DEF — still stops its CPU profile and writes its -metrics
// report, because the observability finish is deferred.
func TestRunFailureFlushesProfileAndReport(t *testing.T) {
	lefPath, _ := clitest.WriteLEFDEF(t, clitest.SmallSpec(), nil)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	var metrics bytes.Buffer
	err := run(&options{
		lefPath: lefPath, defPath: filepath.Join(dir, "missing.def"),
		obs: &obs.Flags{Metrics: "json", CPUProfile: cpu, Out: &metrics},
	})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want the missing DEF's open error", err)
	}
	if st, serr := os.Stat(cpu); serr != nil || st.Size() == 0 {
		t.Fatalf("CPU profile not flushed: %v (%v)", st, serr)
	}
	var rep obs.Report
	if err := json.Unmarshal(metrics.Bytes(), &rep); err != nil {
		t.Fatalf("metrics report not flushed on failure: %v\n%s", err, metrics.Bytes())
	}
}

// TestRunCancelledFlushesPartialSummary is the regression test for the
// graceful-degradation contract: a deadline (the same ctx path a SIGTERM
// takes through cliutil.RunFlags.Context) that fires mid-run must still emit
// the summary table with the Health line, return the cancellation error, and
// flush the metrics report.
func TestRunCancelledFlushesPartialSummary(t *testing.T) {
	lefPath, defPath := clitest.WriteLEFDEF(t, clitest.SmallSpec(), nil)
	var out, metrics bytes.Buffer
	opts := &options{
		lefPath: lefPath, defPath: defPath, k: 3, workers: 1,
		run: &cliutil.RunFlags{Timeout: time.Nanosecond},
		obs: &obs.Flags{Metrics: "json", Out: &metrics},
		out: &out,
	}
	err := run(opts)
	if !cliutil.Cancelled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if cliutil.ExitCode(err) != 3 {
		t.Fatalf("exit code = %d, want 3", cliutil.ExitCode(err))
	}
	got := out.String()
	if !strings.Contains(got, "Pin access summary") {
		t.Errorf("partial summary table not flushed:\n%s", got)
	}
	if !strings.Contains(got, "cancelled") {
		t.Errorf("Health summary missing the cancelled marker:\n%s", got)
	}
	var rep obs.Report
	if err := json.Unmarshal(metrics.Bytes(), &rep); err != nil {
		t.Fatalf("metrics report not flushed on cancellation: %v", err)
	}
}
