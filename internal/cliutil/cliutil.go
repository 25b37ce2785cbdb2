// Package cliutil holds the plumbing shared by the cmd tools: the design
// loader, the -timeout and -fail-fast flags with SIGINT/SIGTERM-aware
// contexts, so every tool degrades the same way — flush whatever partial
// report exists, exit non-zero — when a run is cancelled, and the serving
// tools' operational logger and build info.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// RunFlags carries the robustness options common to every tool.
type RunFlags struct {
	// Timeout aborts the run after this duration; 0 disables the deadline.
	Timeout time.Duration
	// FailFast aborts at the first degraded result instead of quarantining
	// it and continuing.
	FailFast bool
}

// RegisterRunFlags registers -timeout and -fail-fast on the flag set.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.DurationVar(&f.Timeout, "timeout", 0, "abort the run after this duration (0 disables)")
	fs.BoolVar(&f.FailFast, "fail-fast", false, "abort on the first degraded result instead of continuing")
	return f
}

// FailFastSet reports whether -fail-fast was given. Like Context it is
// nil-receiver safe, so tool run() functions behave sensibly when a test
// constructs their options without going through RegisterRunFlags.
func (f *RunFlags) FailFastSet() bool {
	return f != nil && f.FailFast
}

// Context returns a context cancelled by SIGINT, SIGTERM, or the -timeout
// deadline when one is set. Call the returned stop function before exiting
// to restore default signal behaviour (a second SIGINT then kills the
// process immediately).
func (f *RunFlags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f == nil || f.Timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, f.Timeout)
	return tctx, func() {
		cancel()
		stop()
	}
}

// ExitCode maps a run error to the process exit status: 0 on success, 3 when
// the run was cancelled (deadline or signal) after flushing partial output,
// 1 for every other failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return 3
	default:
		return 1
	}
}

// Cancelled reports whether err is a context cancellation or deadline.
func Cancelled(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// RetryPolicy tunes Retry: up to Attempts calls separated by jittered
// exponential backoff starting at BaseDelay and capped at MaxDelay.
type RetryPolicy struct {
	// Attempts is the total number of calls (not retries); values < 1 mean 1.
	Attempts int
	// BaseDelay is the backoff before the second attempt; 0 retries
	// immediately.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; 0 leaves it uncapped.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts; values <= 1 default to 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomized away (0..1): a delay d
	// becomes uniform in [d*(1-Jitter), d]. Negative or zero disables jitter.
	Jitter float64
	// RetryIf, when set, classifies errors: a false return makes the error
	// permanent and Retry gives up immediately. Nil retries every error.
	RetryIf func(error) bool

	// Rand supplies the jitter randomness; nil makes Retry use a local
	// generator with a fixed seed, so backoff schedules are reproducible by
	// default (the global math/rand source would differ run to run and leak
	// nondeterminism into tests). Inject a generator to randomize or to pin a
	// different schedule.
	Rand *rand.Rand

	// sleep is a test seam: when non-nil, Retry calls it instead of sleeping
	// on a real timer, so tests can record the backoff schedule.
	sleep func(time.Duration)
}

// retrySeed seeds the fallback jitter source when RetryPolicy.Rand is nil.
const retrySeed = 1

// delay returns the backoff before attempt n (n = 1 is the first retry).
func (p RetryPolicy) delay(n int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		r := p.Rand
		if r == nil {
			// Retry seeds p.Rand up front; this covers direct delay() calls.
			r = rand.New(rand.NewSource(retrySeed))
		}
		d *= 1 - j*r.Float64()
	}
	return time.Duration(d)
}

// Retry calls fn until it succeeds, the policy's attempts are exhausted, the
// error is classified permanent by RetryIf, or ctx is cancelled. It returns
// nil on success, ctx.Err() when the context ends a backoff sleep early, and
// otherwise fn's last error. The snapshot-write and warm-restart-load paths
// of the oracle server are the canonical users.
func Retry(ctx context.Context, p RetryPolicy, fn func() error) error {
	if p.Rand == nil {
		p.Rand = rand.New(rand.NewSource(retrySeed))
	}
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 1; ; n++ {
		// Checking before every attempt (not only inside the timer select)
		// means a pre-cancelled context never invokes fn, and the sleep test
		// seam path still honors cancellation between attempts.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if n >= attempts || (p.RetryIf != nil && !p.RetryIf(err)) {
			return err
		}
		if d := p.delay(n); d > 0 {
			if p.sleep != nil {
				p.sleep(d)
				continue
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}
