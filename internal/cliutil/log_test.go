package cliutil

import (
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

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
	l, err := NewLogger(&buf, "test", "info")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden")
	l.Info("hello", "n", 42, "who", `quo"te`)
	l.With("design", "c17").Error("boom", "corr", "abc-1", "err", errFake{})

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
}

// TestLoggerLineShape: every line leads with the keys operators parse — ts
// in UTC RFC 3339, the lower-case level, msg and the tool name — before the
// event's fields.
func TestLoggerLineShape(t *testing.T) {
	var buf strings.Builder
	l, err := NewLogger(&buf, "paoserve", "warning")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("slow", "path", "a.snap")
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("not one JSON line: %v\n%s", err, line)
	}
	ts, _ := m["ts"].(string)
	if at, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") || at.IsZero() {
		t.Fatalf("ts = %q, want UTC RFC 3339: %v", ts, err)
	}
	want := `"level":"warn","msg":"slow","logger":"paoserve","path":"a.snap"}`
	if !strings.HasPrefix(line, `{"ts":`) || !strings.HasSuffix(line, want) {
		t.Fatalf("line shape = %s, want {\"ts\":...,%s", line, want)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake failure" }

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Fatalf("parseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Fatal("bad level must error")
	}
}
