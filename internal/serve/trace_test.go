package serve

import (
	"testing"
	"time"
)

func TestSamplerDeterministic(t *testing.T) {
	s := newSampler(0.25)
	hits := 0
	for i := 0; i < 1000; i++ {
		if s.sample() {
			hits++
		}
	}
	if hits < 245 || hits > 255 {
		t.Fatalf("rate-0.25 sampler fired %d/1000 times", hits)
	}
	every := newSampler(1)
	for i := 0; i < 10; i++ {
		if !every.sample() {
			t.Fatal("rate-1 sampler must always fire")
		}
	}
	if newSampler(0) != nil {
		t.Fatal("rate-0 sampler should be nil")
	}
	var nilS *sampler
	if nilS.sample() {
		t.Fatal("nil sampler fired")
	}
}

func TestCorrIDs(t *testing.T) {
	a, b := newCorrID(), newCorrID()
	if a == b || a == "" {
		t.Fatalf("corr IDs not unique: %q %q", a, b)
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	sl := newSlowLog(3, 10*time.Millisecond)
	if sl.observe(SlowLogEntry{CorrID: "fast"}, time.Millisecond) {
		t.Fatal("fast entry without trace must be dropped")
	}
	for i := 0; i < 5; i++ {
		ok := sl.observe(SlowLogEntry{CorrID: string(rune('a' + i))}, 20*time.Millisecond)
		if !ok {
			t.Fatal("slow entry must be kept")
		}
	}
	snap := sl.snapshot()
	if snap.Total != 5 || snap.Capacity != 3 || len(snap.Entries) != 3 {
		t.Fatalf("snapshot = total %d cap %d len %d", snap.Total, snap.Capacity, len(snap.Entries))
	}
	// Newest first: e, d, c.
	if snap.Entries[0].CorrID != "e" || snap.Entries[2].CorrID != "c" {
		t.Fatalf("ring order wrong: %+v", snap.Entries)
	}
}
