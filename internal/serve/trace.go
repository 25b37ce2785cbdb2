package serve

// Per-request tracing: every admitted request carries a correlation ID
// (echoed in X-Correlation-Id and recorded in its slow-log entry), and a
// deterministic sampler picks the requests that record a span tree, which
// rides the request context down to the handlers.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"

	"repro/internal/obs"
)

// corrPrefix is a per-process random prefix so IDs from different processes
// (or restarts) never collide; corrCtr makes IDs unique within the process.
var (
	corrPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	corrCtr atomic.Uint64
)

// newCorrID mints a fresh correlation ID: an 8-hex-digit process prefix plus
// a monotonic per-process counter.
func newCorrID() string {
	var buf [8]byte
	n := corrCtr.Add(1)
	for i := 7; i >= 0; i-- {
		buf[i] = "0123456789abcdef"[n&0xf]
		n >>= 4
	}
	return corrPrefix + "-" + string(buf[:])
}

type spanKey struct{}

// withSpan attaches a trace span to the context; handlers pick it up with
// spanFrom and hang children off it.
func withSpan(ctx context.Context, sp *obs.Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// spanFrom returns the context's span, or nil (and every obs.Span method is
// a no-op on nil, so callers never need to check).
func spanFrom(ctx context.Context) *obs.Span {
	sp, _ := ctx.Value(spanKey{}).(*obs.Span)
	return sp
}

// samplerOne is the fixed-point scale of the sampler accumulator.
const samplerOne = 1 << 32

// sampler decides deterministically which requests get a full span tree: an
// accumulator gains rate per call and every time it crosses an integer
// boundary the call is sampled. rate=1 samples everything, rate=0.01 every
// 100th call, rate<=0 nothing. Deterministic (no RNG) so tests and replays
// see stable sampling; race-safe via a single atomic add.
type sampler struct {
	step int64
	acc  atomic.Int64
}

// newSampler creates a sampler with the given rate in [0, 1]; nil for a rate
// of 0 or less.
func newSampler(rate float64) *sampler {
	if rate <= 0 {
		return nil
	}
	if rate > 1 {
		rate = 1
	}
	return &sampler{step: int64(rate * samplerOne)}
}

// sample reports whether this call is sampled. Nil-safe: a nil sampler never
// samples.
func (s *sampler) sample() bool {
	if s == nil || s.step <= 0 {
		return false
	}
	n := s.acc.Add(s.step)
	return n/samplerOne != (n-s.step)/samplerOne
}
