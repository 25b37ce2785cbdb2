// Package telemetry is the serving layer's observability on top of
// internal/obs: correlation IDs and deterministic trace sampling propagated
// via context (trace.go), a structured JSON-lines logger (logger.go), a
// bounded slow-query log with trace exemplars (slowlog.go), build-info
// reporting (buildinfo.go), and CheckProm, the strict Prometheus text-format
// checker the exposition tests parse with (promcheck.go). Metrics and their
// exposition live in obs.
//
// The package depends only on the standard library and internal/obs, so any
// layer (drc, pao, serve, cliutil, cmd) may import it without cycles. Like
// obs, every method tolerates a nil receiver: a nil Logger, Sampler or
// SlowLog turns the corresponding hook into a cheap no-op, which is what
// keeps disabled telemetry off the hot path.
package telemetry

import "time"

// nowFunc is swapped in tests.
var nowFunc = time.Now
