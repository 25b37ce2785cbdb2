package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/pao"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("paoworker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags(newFlagSet(), nil); err == nil {
		t.Fatal("neither -case nor -lef/-def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-case", "pao_test1", "-lef", "a.lef", "-def", "a.def"}); err == nil {
		t.Fatal("both -case and -lef/-def must be an error")
	}
	if _, err := parseFlags(newFlagSet(), []string{"-lef", "a.lef"}); err == nil {
		t.Fatal("-lef without -def must be an error")
	}
	o, err := parseFlags(newFlagSet(), []string{"-case", "pao_test1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != "127.0.0.1:8451" || o.k != 3 || o.noBCA {
		t.Errorf("defaults wrong: %+v", o)
	}
	o, err = parseFlags(newFlagSet(), []string{
		"-case", "pao_test2", "-scale", "0.02", "-seed", "9",
		"-listen", "127.0.0.1:0", "-k", "5", "-nobca"})
	if err != nil {
		t.Fatal(err)
	}
	if o.caseName != "pao_test2" || o.scale != 0.02 || o.seed != 9 ||
		o.listen != "127.0.0.1:0" || o.k != 5 || !o.noBCA {
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

// parseLEFDEF loads the design exactly as the worker does, so the test's
// coordinator hashes the same design the worker serves.
func parseLEFDEF(t *testing.T, lefPath, defPath string) *db.Design {
	t.Helper()
	d, err := loadDesign(&options{lefPath: lefPath, defPath: defPath})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDistSmokeWorkerSIGTERM is the end-to-end worker smoke test: boot
// paoworker on the generated LEF/DEF pair, run a real coordinator against it,
// require the distributed result byte-identical to single-process, then
// deliver a real SIGTERM and require a clean exit.
func TestDistSmokeWorkerSIGTERM(t *testing.T) {
	lefPath, defPath := clitest.WriteLEFDEF(t, clitest.SmallSpec(), nil)
	ready := make(chan string, 1)
	var log bytes.Buffer
	opts := &options{
		lefPath: lefPath, defPath: defPath,
		listen: "127.0.0.1:0", k: 3,
		run: &cliutil.RunFlags{}, obs: &obs.Flags{},
		log:     &log,
		onReady: func(addr string) { ready <- addr },
	}
	runDone := make(chan error, 1)
	go func() { runDone <- run(opts) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runDone:
		t.Fatalf("worker exited before ready: %v\n%s", err, log.String())
	case <-time.After(30 * time.Second):
		t.Fatal("worker never became ready")
	}

	d := parseLEFDEF(t, lefPath, defPath)
	cfg := pao.DefaultConfig()
	cfg.K = 3
	single := pao.NewAnalyzer(d, cfg).Run()
	single.Stats = single.Stats.Counts()
	var want bytes.Buffer
	if err := pao.EncodeSnapshot(&want, d, cfg, single); err != nil {
		t.Fatal(err)
	}

	c := &dist.Coordinator{
		Design: d, Cfg: cfg, Workers: []string{addr},
		Obs: obs.NewObserver("smoke"),
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = res.Stats.Counts()
	var got bytes.Buffer
	if err := pao.EncodeSnapshot(&got, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("distributed snapshot differs from single-process: %d vs %d bytes",
			got.Len(), want.Len())
	}
	if c.Obs.Reg().Snapshot().Counters["dist.shards.ok"] == 0 {
		t.Error("no shards went through the worker; the smoke test is vacuous")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("SIGTERM shutdown returned %v, want nil (exit 0)\n%s", err, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after SIGTERM")
	}
}
