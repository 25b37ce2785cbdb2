// Package faultinject is a deterministic, seed-driven fault injector for the
// PAAF pipeline. It is build-tag-free: faults reach production code only
// through the optional hooks on pao.Analyzer (FaultHook, DRCFaultHook) and
// drc.Engine (FaultHook), all of which stay nil outside tests.
//
// A Fault arms one site: when the hook fires with a matching site (and,
// optionally, detail) for the configured call count, the injector panics,
// sleeps, or returns spurious DRC violations. Matching on the detail string —
// a unique-instance signature or cluster id — makes injection independent of
// goroutine scheduling, so the same script hits the same classes whether the
// pipeline runs with one worker or many.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/drc"
)

// Kind selects the fault behaviour at the hook site.
type Kind uint8

const (
	// Panic panics with a *Panic value carrying the fault's note.
	Panic Kind = iota
	// Delay sleeps for the fault's Sleep duration.
	Delay
	// Spurious returns a fabricated DRC violation (DRC hooks only; it is a
	// no-op on plain site hooks, which cannot return violations).
	Spurious
	// ConnDrop makes a network hook fail with ErrConnDrop, simulating a
	// connection torn down before the payload arrives (NetHook only; plain
	// and DRC hooks record the firing but cannot return errors).
	ConnDrop
	// Corrupt flips one payload byte at a position derived deterministically
	// from the fault's firing ordinal, simulating in-flight corruption the
	// receiver's checksum must catch (NetHook only).
	Corrupt
	// DelayJitter sleeps for Sleep scaled by a deterministic pseudo-random
	// factor in [1-Jitter, 1+Jitter], simulating variable network latency.
	// Unlike Delay, repeated firings of the same fault sleep different (but
	// seed-stable) durations.
	DelayJitter
)

var kindNames = [...]string{"panic", "delay", "spurious", "conndrop", "corrupt", "delayjitter"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrConnDrop is the error ConnDrop faults surface through NetHook. Callers
// treat it like any transport failure: retry, hedge, or relocate the work.
var ErrConnDrop = errors.New("faultinject: injected connection drop")

// PanicValue is the value injected panics carry, so tests can distinguish
// them from genuine faults.
type PanicValue struct {
	Site   string
	Detail string
	Note   string
}

func (p *PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s [%s] %s", p.Site, p.Detail, p.Note)
}

// Fault arms one injection.
type Fault struct {
	// Site must equal the hook's site name (pao.SiteAnalyzeUnique,
	// drc.SiteCheckVia, ...).
	Site string
	// Detail, when non-empty, restricts the fault to hook invocations whose
	// detail string matches exactly (class signature, cluster id). Faults
	// with an empty Detail match every invocation of the site — their call
	// counting then depends on scheduling when workers run concurrently, so
	// prefer detail-scoped faults for reproducible multi-worker tests.
	Detail string
	// Call fires the fault on the n-th matching invocation (1-based);
	// 0 fires on every matching invocation.
	Call int64
	Kind Kind
	// Sleep is the Delay duration (and the DelayJitter base duration).
	Sleep time.Duration
	// Jitter is the DelayJitter spread fraction: each firing sleeps
	// Sleep * u with u uniform in [1-Jitter, 1+Jitter]. Values outside
	// [0, 1] are clamped; 0 behaves like Delay.
	Jitter float64
	// Seed drives the DelayJitter randomness; faults with equal seeds sleep
	// identical schedules run to run.
	Seed int64
	// Note tags the fault in the panics, violations and errors it injects.
	Note string

	count int64 // matching invocations seen so far
	rng   *rand.Rand
}

// jitterFactor returns the deterministic per-firing scale for DelayJitter.
func (f *Fault) jitterFactor() float64 {
	j := f.Jitter
	if j < 0 {
		j = 0
	}
	if j > 1 {
		j = 1
	}
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	return 1 - j + 2*j*f.rng.Float64()
}

// Injector holds armed faults and a count of fired ones. The zero value is
// ready to use; all methods are safe for concurrent hooks.
type Injector struct {
	mu     sync.Mutex
	faults []*Fault
	fired  int
}

// New returns an empty injector.
func New() *Injector { return &Injector{} }

// Add arms a fault. The *Fault remains owned by the injector.
func (in *Injector) Add(f *Fault) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, f)
	return in
}

// Script arms n one-shot faults of the given kind at pseudorandom distinct
// call ordinals in [1, maxCall], drawn deterministically from seed — the
// "inject K faults somewhere" driver for randomized robustness tests.
func (in *Injector) Script(seed int64, site string, kind Kind, n int, maxCall int64) *Injector {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool)
	for len(used) < n && int64(len(used)) < maxCall {
		c := 1 + rng.Int63n(maxCall)
		if used[c] {
			continue
		}
		used[c] = true
		in.Add(&Fault{Site: site, Call: c, Kind: kind,
			Note: fmt.Sprintf("scripted seed=%d call=%d", seed, c)})
	}
	return in
}

// FiredCount returns how many faults have fired.
func (in *Injector) FiredCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// match advances call counting for every armed fault matching (site, detail)
// and returns the faults that fire on this invocation.
func (in *Injector) match(site, detail string) []*Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	var hit []*Fault
	for _, f := range in.faults {
		if f.Site != site || (f.Detail != "" && f.Detail != detail) {
			continue
		}
		f.count++
		if f.Call != 0 && f.count != f.Call {
			continue
		}
		in.fired++
		hit = append(hit, f)
	}
	return hit
}

// act executes the non-DRC effects of fired faults: sleeps first, then at
// most one panic. Spurious faults are collected for DRC hooks.
func act(site, detail string, hit []*Fault) []drc.Violation {
	var vs []drc.Violation
	var boom *Fault
	for _, f := range hit {
		switch f.Kind {
		case Delay:
			time.Sleep(f.Sleep)
		case Spurious:
			vs = append(vs, drc.Violation{
				Rule: "Injected", Layer: "fault",
				Note: fmt.Sprintf("faultinject %s [%s] %s", site, detail, f.Note),
			})
		case Panic:
			if boom == nil {
				boom = f
			}
		}
	}
	if boom != nil {
		panic(&PanicValue{Site: site, Detail: detail, Note: boom.Note})
	}
	return vs
}

// netAct executes the network-site effects of fired faults, in order: sleeps
// (Delay and DelayJitter) first, then payload corruption, then at most one
// connection drop, then at most one panic. The returned payload is a corrupted
// copy when a Corrupt fault fired (the input slice is never modified).
func (in *Injector) netAct(site, detail string, payload []byte, hit []*Fault) ([]byte, error) {
	var boom, drop *Fault
	corrupted := false
	for _, f := range hit {
		switch f.Kind {
		case Delay:
			time.Sleep(f.Sleep)
		case DelayJitter:
			in.mu.Lock()
			u := f.jitterFactor()
			in.mu.Unlock()
			time.Sleep(time.Duration(float64(f.Sleep) * u))
		case Corrupt:
			if len(payload) > 0 {
				if !corrupted {
					payload = append([]byte(nil), payload...)
					corrupted = true
				}
				in.mu.Lock()
				pos := int(f.count-1) % len(payload)
				in.mu.Unlock()
				payload[pos] ^= 0xa5
			}
		case ConnDrop:
			if drop == nil {
				drop = f
			}
		case Panic:
			if boom == nil {
				boom = f
			}
		}
	}
	if boom != nil {
		panic(&PanicValue{Site: site, Detail: detail, Note: boom.Note})
	}
	if drop != nil {
		return nil, fmt.Errorf("%w at %s [%s] %s", ErrConnDrop, site, detail, drop.Note)
	}
	return payload, nil
}

// NetHook adapts the injector to network fault points (dist.dispatch,
// dist.response, dist.heartbeat, ...): the hook receives the payload about to
// cross the wire and returns it possibly delayed (Delay, DelayJitter),
// corrupted (Corrupt — one byte flipped, forcing the receiver's checksum
// validation to reject it), or replaced by a transport error (ConnDrop).
// Panic faults still panic; Spurious faults are recorded but have no effect.
func (in *Injector) NetHook() func(site, detail string, payload []byte) ([]byte, error) {
	return func(site, detail string, payload []byte) ([]byte, error) {
		return in.netAct(site, detail, payload, in.match(site, detail))
	}
}

// SiteHook adapts the injector to pao.Analyzer.FaultHook. Spurious faults
// armed on plain sites are recorded as fired but have no other effect.
func (in *Injector) SiteHook() func(site, detail string) {
	return func(site, detail string) {
		act(site, detail, in.match(site, detail))
	}
}

// DRCHook adapts the injector to pao.Analyzer.DRCFaultHook (and, with the
// detail pre-bound, to drc.Engine.FaultHook): fired Spurious faults surface
// as fabricated violations that fail the enclosing via check.
func (in *Injector) DRCHook() func(site, detail string) []drc.Violation {
	return func(site, detail string) []drc.Violation {
		return act(site, detail, in.match(site, detail))
	}
}
