package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerDeterministic(t *testing.T) {
	s := NewSampler(0.25)
	hits := 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits < 245 || hits > 255 {
		t.Fatalf("rate-0.25 sampler fired %d/1000 times", hits)
	}
	every := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !every.Sample() {
			t.Fatal("rate-1 sampler must always fire")
		}
	}
	if NewSampler(0) != nil {
		t.Fatal("rate-0 sampler should be nil")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler fired")
	}
}

func TestCorrIDs(t *testing.T) {
	a, b := NewCorrID(), NewCorrID()
	if a == b || a == "" {
		t.Fatalf("corr IDs not unique: %q %q", a, b)
	}
	ctx, id := EnsureCorrID(context.Background())
	if id == "" || CorrIDFrom(ctx) != id {
		t.Fatalf("EnsureCorrID round-trip failed: %q", id)
	}
	ctx2, id2 := EnsureCorrID(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("EnsureCorrID must keep an existing ID")
	}
	if CorrIDFrom(nil) != "" {
		t.Fatal("nil context produced a corr ID")
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	sl := NewSlowLog(3, 10*time.Millisecond)
	if sl.Observe(Entry{CorrID: "fast"}, time.Millisecond) {
		t.Fatal("fast entry without trace must be dropped")
	}
	for i := 0; i < 5; i++ {
		ok := sl.Observe(Entry{CorrID: string(rune('a' + i))}, 20*time.Millisecond)
		if !ok {
			t.Fatal("slow entry must be kept")
		}
	}
	snap := sl.Snapshot()
	if snap.Total != 5 || snap.Capacity != 3 || len(snap.Entries) != 3 {
		t.Fatalf("snapshot = total %d cap %d len %d", snap.Total, snap.Capacity, len(snap.Entries))
	}
	// Newest first: e, d, c.
	if snap.Entries[0].CorrID != "e" || snap.Entries[2].CorrID != "c" {
		t.Fatalf("ring order wrong: %+v", snap.Entries)
	}
	var nilSL *SlowLog
	if nilSL.Observe(Entry{}, time.Hour) {
		t.Fatal("nil slowlog recorded")
	}
	if got := nilSL.Snapshot(); got.Entries == nil || len(got.Entries) != 0 {
		t.Fatal("nil slowlog snapshot must be empty, not nil")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Fatal("missing go version")
	}
	if len(b.Fields()) == 0 {
		t.Fatal("no build-info fields")
	}
}

func TestLoggerJSONLines(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&syncWriter{sb: &buf}, "test", LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Debug("hidden")
	l.Info("hello", F("n", 42), F("who", `quo"te`))
	ctx := WithCorrID(context.Background(), "abc-1")
	l.With(F("design", "c17")).ErrorCtx(ctx, "boom", F("err", errFake{}))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"level":"info"`) || !strings.Contains(lines[0], `"n":42`) ||
		!strings.Contains(lines[0], `"who":"quo\"te"`) {
		t.Fatalf("bad info line: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"corr":"abc-1"`) || !strings.Contains(lines[1], `"design":"c17"`) ||
		!strings.Contains(lines[1], `"err":"fake failure"`) {
		t.Fatalf("bad error line: %s", lines[1])
	}
	var nilL *Logger
	nilL.Info("dropped")
	nilL.With(F("a", 1)).ErrorCtx(ctx, "dropped")
}

type errFake struct{}

func (errFake) Error() string { return "fake failure" }

type syncWriter struct {
	mu sync.Mutex
	sb *strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("bad level must error")
	}
}
