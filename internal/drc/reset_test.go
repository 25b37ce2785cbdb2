package drc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// resetRound is one seeded round of shapes, churn and questions that
// TestResetMatchesFresh puts to a reset engine and to a fresh one.
type resetRound struct {
	seed int64
	// hook arms a FaultHook that injects one violation into every via check
	// (and so bypasses the via cache); panic makes the round's last via check
	// panic from inside the check instead, leaving the engine mid-query.
	hook, panic bool
	// bulk adds the round's shapes through a bulk build (Grow … Compact);
	// buildPanic panics halfway through adding them instead, leaving the
	// engine mid-build (a bulk build when bulk is set).
	bulk, buildPanic bool
}

// play fills e with the round's shapes (some tagged, one beyond int32),
// removes a third of them, compacts, adds two far-apart shapes on metal 3 so
// its next compaction is map-only, attaches a new via cache, and answers a
// fixed set of questions: region queries (IDs in result order), via reports,
// cached verdicts, metal checks and the full-design sweep. It returns the
// answers rendered as strings.
func (r resetRound) play(e *Engine) (answers []string) {
	tc := e.Tech
	rng := rand.New(rand.NewSource(r.seed))
	say := func(v any) { answers = append(answers, fmt.Sprint(v)) }
	if r.buildPanic {
		defer func() { say(recover()) }()
	}
	n := 120 + rng.Intn(120)
	if r.bulk {
		e.Grow(n + 1)
	}
	ids := []int{e.AddMetal(3, geom.R(3e9, 3e9, 3e9+100, 3e9+70), 4, KindWire, "sat")}
	for i := 0; i < n; i++ {
		if r.buildPanic && i == n/2 {
			panic("injected mid-build panic")
		}
		x, y := int64(rng.Intn(40000)), int64(rng.Intn(40000))
		w, h := int64(70+rng.Intn(3000)), int64(70+rng.Intn(400))
		net := rng.Intn(6) - 1 // NoNet included
		tag := ""
		if rng.Intn(5) == 0 {
			tag = fmt.Sprintf("s%d", i)
		}
		if rng.Intn(6) == 0 {
			ids = append(ids, e.AddCut(1+rng.Intn(2), geom.R(x, y, x+65, y+65), net, tag))
			continue
		}
		ids = append(ids, e.AddMetal(1+rng.Intn(2), geom.R(x, y, x+w, y+h), net, Kind(rng.Intn(3)), tag))
	}
	for i := 0; i < len(ids)/3; i++ {
		e.Remove(ids[rng.Intn(len(ids))])
	}
	e.Compact()
	e.AddMetal(3, geom.R(0, 0, 100, 70), 1, KindWire, "near")
	e.AddMetal(3, geom.R(9e8, 9e8, 9e8+100, 9e8+70), 2, KindWire, "far")
	e.Compact()
	if !e.metal[3].mapOnly {
		panic("round setup: metal 3 should compact to map-only mode")
	}
	e.AttachViaCache(NewViaCache())
	if r.hook {
		e.FaultHook = func(string) []Violation {
			return []Violation{{Rule: "Injected", Layer: "M1", Where: geom.R(0, 0, 1, 1)}}
		}
	}
	qc := e.NewQueryCtx()
	for i := 0; i < 30; i++ {
		x, y := int64(rng.Intn(40000)), int64(rng.Intn(40000))
		win := geom.R(x, y, x+3000, y+3000)
		say(e.QueryMetalCtx(1+rng.Intn(2), win, qc))
		say(e.QueryCutCtx(1, win, qc))
		say(e.QueryMetal(2, win))
	}
	say(e.QueryMetal(3, geom.R(9e8, 9e8, 9e8+10, 9e8+10)))
	say(e.QueryMetal(3, geom.R(3e9-10, 3e9-10, 3e9+10, 3e9+10)))
	via := tc.ViasAbove(1)[0]
	for i := 0; i < 40; i++ {
		p := geom.Pt(int64(rng.Intn(40000)), int64(rng.Intn(40000)))
		net := rng.Intn(6) - 1
		rects := []geom.Rect{geom.R(p.X-200, p.Y-35, p.X+200, p.Y+35)}
		say(e.CheckViaCtx(via, p, net, rects, qc))
		say(e.CheckViaVerdictCtx(via, p, net, rects, qc))
		say(e.CheckViaVerdictCtx(via, p, net, rects, qc)) // a hit unless hooked
		say(e.CheckMetalRectCtx(2, geom.R(p.X, p.Y, p.X+400, p.Y+70), net, qc))
	}
	say(e.CheckAll())
	if r.panic {
		e.FaultHook = func(string) []Violation { panic("injected mid-check panic") }
		defer func() { say(recover()) }()
		e.CheckViaCtx(via, geom.Pt(100, 100), 1, nil, qc)
	}
	return answers
}

// TestResetMatchesFresh: one engine, Reset between seeded rounds, answers
// every round exactly as a fresh engine holding the same shapes — the same
// IDs, result order, violation lists and drc.* counters — although each
// round leaves tags, a saturated shape, removals, a map-only index, a fault
// hook, a via cache, a panic mid-check or a panic mid-build (bulk or not)
// behind for the next Reset. A round filled through a bulk build also
// answers exactly as the same round filled one Add at a time.
func TestResetMatchesFresh(t *testing.T) {
	tc := tech.N45()
	reused := NewEngine(tc)
	reused.Counters = NewCounters(obs.NewRegistry())
	rounds := []resetRound{
		{seed: 1}, {seed: 2, hook: true}, {seed: 3, panic: true}, {seed: 4, bulk: true},
		{seed: 5, hook: true, panic: true}, {seed: 6, bulk: true, buildPanic: true},
		{seed: 6, bulk: true}, {seed: 2}, {seed: 7, bulk: true, hook: true},
		{seed: 8, buildPanic: true}, {seed: 1, bulk: true, panic: true},
	}
	// play runs r on e and returns its answers with the counter deltas.
	play := func(e *Engine, r resetRound) ([]string, map[string]int64) {
		before := e.Counters.Snapshot()
		got := r.play(e)
		delta := e.Counters.Snapshot()
		for name := range delta {
			delta[name] -= before[name]
		}
		return got, delta
	}
	freshPlay := func(r resetRound) ([]string, map[string]int64) {
		fresh := NewEngine(tc)
		fresh.Counters = NewCounters(obs.NewRegistry())
		return play(fresh, r)
	}
	same := func(i int, r resetRound, what string, got, want []string, gotC, wantC map[string]int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			for k := range want {
				if k >= len(got) || got[k] != want[k] {
					t.Fatalf("round %d (%+v): answer %d %s\n got %s\nwant %s", i, r, k, what, got[k], want[k])
				}
			}
			t.Fatalf("round %d (%+v): %d answers %s, want %d", i, r, len(got), what, len(want))
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("round %d (%+v): counter deltas %s %v, want %v", i, r, what, gotC, wantC)
		}
	}
	for i, r := range rounds {
		reused.Reset()
		if reused.bulk || len(reused.objs) != 0 || len(reused.sats) != 0 || len(reused.tags) != 0 {
			t.Fatalf("round %d: Reset left bulk=%v, %d records, %d saturated rects, %d tags",
				i, reused.bulk, len(reused.objs), len(reused.sats), len(reused.tags))
		}
		for k, idx := range reused.all {
			if len(idx.members) != 0 || idx.pending != 0 || idx.nx != 0 || len(idx.over) != 0 || idx.dirty() {
				t.Fatalf("round %d: Reset left index %d non-empty", i, k)
			}
		}
		got, gotC := play(reused, r)
		want, wantC := freshPlay(r)
		same(i, r, "after Reset", got, want, gotC, wantC)
		if r.bulk && !r.buildPanic {
			one := r
			one.bulk = false
			want, wantC := freshPlay(one)
			same(i, r, "from a bulk build", got, want, gotC, wantC)
		}
	}
}
