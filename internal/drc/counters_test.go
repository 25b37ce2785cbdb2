package drc

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// TestCountersTrackChecks: the engine's counters record query volume and
// per-kind check counts as checks run.
func TestCountersTrackChecks(t *testing.T) {
	e := NewEngine(tech.N45())
	e.Counters = NewCounters(nil)
	e.AddMetal(1, geom.R(0, 0, 1000, 70), 1, KindPin, "a")

	vs := e.CheckMetalRect(1, geom.R(0, 130, 1000, 200), 2) // spacing violation
	if len(vs) == 0 {
		t.Fatal("expected a spacing violation")
	}
	e.CheckMetalRect(1, geom.R(0, 140, 1000, 210), 2) // clean

	c := e.Counters
	if got := c.MetalChecks.Load(); got != 2 {
		t.Fatalf("MetalChecks = %d, want 2", got)
	}
	if c.Queries.Load() == 0 {
		t.Fatal("Queries not counted")
	}
	if got := c.Violations.Load(); got != int64(len(vs)) {
		t.Fatalf("Violations = %d, want %d", got, len(vs))
	}

	snap := c.Snapshot()
	if snap["drc.check.metal"] != 2 {
		t.Fatalf("snapshot drc.check.metal = %d, want 2", snap["drc.check.metal"])
	}
	if snap["drc.query.count"] != c.Queries.Load() {
		t.Fatal("snapshot disagrees with counter")
	}
	// Every family is present in the snapshot even when zero.
	for _, name := range []string{
		"drc.query.count", "drc.query.objects", "drc.check.metal", "drc.check.cut",
		"drc.check.eol", "drc.check.minstep", "drc.check.pair",
		"drc.via.attempted", "drc.via.clean", "drc.violations",
		"drc.viacache.hit", "drc.viacache.miss",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing %q", name)
		}
	}
}

// TestCountersSharedAcrossEngines: engines holding one Counters count
// into the same registry series (the analyzer shares one across its per-cell
// and global engines), and the registry reports all twelve drc.* families
// from the start. An engine that nothing binds counts nothing.
func TestCountersSharedAcrossEngines(t *testing.T) {
	reg := obs.NewRegistry()
	shared := NewCounters(reg)
	if n := len(reg.Snapshot().Counters); n != 12 {
		t.Fatalf("NewCounters registered %d families, want 12", n)
	}
	for i := 0; i < 3; i++ {
		e := NewEngine(tech.N45())
		e.Counters = shared
		e.AddMetal(1, geom.R(0, 0, 1000, 70), 1, KindPin, "a")
		e.CheckMetalRect(1, geom.R(0, 130, 1000, 200), 2)
	}
	if got := reg.Counter("drc.check.metal").Load(); got != 3 {
		t.Fatalf("registry drc.check.metal = %d, want 3", got)
	}

	unbound := NewEngine(tech.N45())
	unbound.AddMetal(1, geom.R(0, 0, 1000, 70), 1, KindPin, "a")
	unbound.CheckMetalRect(1, geom.R(0, 130, 1000, 200), 2)
	for name, v := range unbound.Counters.Snapshot() {
		if v != 0 {
			t.Errorf("unbound engine counted %s = %d", name, v)
		}
	}
}
