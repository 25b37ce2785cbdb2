package obs_test

import (
	"flag"
	"testing"

	"repro/internal/obs"
)

// TestFlagsDisabledTelemetry: a batch tool run with no telemetry flags set
// keeps its telemetry off. The run's observer is nil, Listen starts no
// listener, and a nil run is safe to call.
func TestFlagsDisabledTelemetry(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := obs.RegisterBatchFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	run, err := f.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	defer run.End(&err)
	if run.Obs != nil {
		t.Fatal("disabled run must have a nil observer")
	}
	if err := run.Listen(obs.Label{Name: "design", Value: "c17"}); err != nil || run.Addr() != "" {
		t.Fatalf("disabled Listen = %v, addr %q", err, run.Addr())
	}

	var nilRun *obs.Run
	if nilRun.Listen() != nil || nilRun.Addr() != "" {
		t.Fatal("nil run misbehaved")
	}
}
