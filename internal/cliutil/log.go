package cliutil

// The operational log of the serving tools (paoserve, paoworker): log/slog
// JSON lines, one object per event, with the keys operators parse — ts (UTC,
// RFC 3339 nano), a lower-case level, msg, logger (the tool name), then the
// event's fields in call order.

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// parseLevel maps a -log-level value onto a slog level: debug, info (or
// empty), warn (or warning) and error, in any case.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger returns tool's JSON-lines logger writing to w, dropping events
// below the -log-level value level.
func NewLogger(w io.Writer, tool, level string) (*slog.Logger, error) {
	lvl, err := parseLevel(level)
	if err != nil {
		return nil, err
	}
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl, ReplaceAttr: lineShape})
	return slog.New(h).With("logger", tool), nil
}

// lineShape renames slog's time key to ts in UTC and lower-cases the level.
func lineShape(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	}
	return a
}
