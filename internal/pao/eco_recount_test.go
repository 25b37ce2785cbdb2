package pao

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/suite"
)

// termName names a net terminal across designs and sessions.
type termName struct{ inst, pin string }

// sessionFailing is the session's own record: the multiset of failing
// terminals it carries into the next commit.
func sessionFailing(s *ECOSession) map[termName]int {
	out := make(map[termName]int)
	for i := range s.terms {
		if tm := &s.terms[i]; tm.failed {
			out[termName{tm.inst.Name, tm.pin.Name}]++
		}
	}
	return out
}

// freshFailing is the from-scratch reference: a fresh analysis of the design
// and a full check of its failing terminals on a new global engine with every
// selected via placed.
func freshFailing(t *testing.T, d *db.Design) (map[termName]int, *Result) {
	t.Helper()
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	eng := a.globalEngine(nil, nil, 0)
	var all []pinTerm
	for _, net := range d.Nets {
		for _, nt := range net.Terms {
			tv, ok := a.resolveTerm(res, nt.Inst, nt.Pin)
			tm := pinTerm{termVia: tv, access: ok}
			if tm.hasVia() {
				tm.place(eng)
			}
			all = append(all, tm)
		}
	}
	qc := eng.NewQueryCtx()
	out := make(map[termName]int)
	for i := range all {
		if tm := &all[i]; !tm.access || (tm.hasVia() && tm.fails(eng, qc)) {
			out[termName{tm.inst.Name, tm.pin.Name}]++
		}
	}
	return out, res
}

// recountScript draws a seeded ECO script aimed at the failed-pin recount:
// moves onto occupied rows (on top of or beside another instance, so shorts
// and spacing conflicts come and go), swaps, deletes and an occasional
// insert.
func recountScript(d *db.Design, rng *rand.Rand, n, round int) []ECOOp {
	var alive []string
	for _, inst := range d.Instances {
		alive = append(alive, inst.Name)
	}
	pick := func() string { return alive[rng.Intn(len(alive))] }
	jitter := []int64{-280, -140, -70, 0, 70, 140, 280}
	var ops []ECOOp
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 5:
			anchor := d.InstByName(alive[rng.Intn(len(alive))])
			if anchor == nil {
				continue // inserted earlier in this script: no position yet
			}
			to := geom.Pt(anchor.Pos.X+jitter[rng.Intn(len(jitter))], anchor.Pos.Y)
			ops = append(ops, ECOOp{Kind: ECOMove, Inst: pick(), To: to})
		case k < 8:
			a, b := pick(), pick()
			if a != b {
				ops = append(ops, ECOOp{Kind: ECOSwap, Inst: a, Other: b})
			}
		case k < 9:
			if len(alive) < 8 {
				continue
			}
			i := rng.Intn(len(alive))
			ops = append(ops, ECOOp{Kind: ECODelete, Inst: alive[i]})
			alive = append(alive[:i], alive[i+1:]...)
		default:
			anchor := d.Instances[rng.Intn(len(d.Instances))]
			name := fmt.Sprintf("rc_r%d_%d", round, len(ops))
			ops = append(ops, ECOOp{Kind: ECOInsert, Inst: name, Master: anchor.Master.Name,
				To: geom.Pt(anchor.Pos.X+jitter[rng.Intn(len(jitter))], anchor.Pos.Y), Orient: anchor.Orient})
			alive = append(alive, name)
		}
	}
	return ops
}

// TestECORecountMatchesFullCheck drives a seeded chain of commits through one
// session and compares the session's set of failing terminals with a
// from-scratch check of the design, once before the first commit (the
// session's own ledger build) and after every commit. Sets, not counts: two
// wrong verdicts that cancel would hide in the count. The reference always
// runs one worker with the cache on; the Workers=2 and NoCache sessions check
// the parallel ledger build and the uncached analysis against it.
func TestECORecountMatchesFullCheck(t *testing.T) {
	workers2 := DefaultConfig()
	workers2.Workers = 2
	noCache := DefaultConfig()
	noCache.NoCache = true
	inputs := []struct {
		spec   suite.Spec
		suffix string
		cfg    Config
	}{
		{suite.Testcases[0].Scale(0.01).WithSeed(7), "", DefaultConfig()},
		{suite.Testcases[3].Scale(0.004).WithSeed(7), "", DefaultConfig()},
		{suite.AES14.Scale(0.01).WithSeed(7), "", DefaultConfig()},
		{suite.AES14.Scale(0.01).WithSeed(7), "_workers2", workers2},
		{suite.Testcases[0].Scale(0.01).WithSeed(7), "_nocache", noCache},
	}
	const rounds, opsPerRound = 6, 4
	for si, in := range inputs {
		t.Run(in.spec.Name+in.suffix, func(t *testing.T) {
			d, err := suite.Generate(in.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Perturb the placement before the analysis, so the session's
			// own ledger build already has failing terminals to get right.
			pre := rand.New(rand.NewSource(int64(1000 + si)))
			if err := ApplyOpsToDesign(d, recountScript(d, pre, 3*opsPerRound, -1)); err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer(d, in.cfg)
			sess := NewECOSession(a, a.Run())
			if sess.Result().Stats.FailedPins == 0 {
				t.Fatal("no pin fails before the first commit; the initial check would prove nothing")
			}
			check := func(when string, res *Result) {
				t.Helper()
				want, fresh := freshFailing(t, d)
				got := sessionFailing(sess)
				for k, n := range want {
					if got[k] != n {
						t.Errorf("%s: %s/%s fails %d times fresh, %d in the session", when, k.inst, k.pin, n, got[k])
					}
				}
				for k, n := range got {
					if want[k] == 0 {
						t.Errorf("%s: %s/%s fails %d times in the session, never fresh", when, k.inst, k.pin, n)
					}
				}
				if res.Stats.FailedPins != fresh.Stats.FailedPins || res.Stats.TotalPins != fresh.Stats.TotalPins {
					t.Errorf("%s: session %d/%d failed/total pins, fresh %d/%d", when,
						res.Stats.FailedPins, res.Stats.TotalPins, fresh.Stats.FailedPins, fresh.Stats.TotalPins)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			check("before the first commit", sess.Result())
			rng := rand.New(rand.NewSource(int64(2000 + si)))
			prev, moved := sess.Result().Stats.FailedPins, false
			for round := 0; round < rounds; round++ {
				res, rep, err := sess.Apply(recountScript(d, rng, opsPerRound, round))
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				t.Logf("round %d: %d of %d pins fail, %d rechecked", round,
					res.Stats.FailedPins, res.Stats.TotalPins, rep.RecheckedPins)
				check(fmt.Sprintf("round %d", round), res)
				moved = moved || res.Stats.FailedPins != prev
				prev = res.Stats.FailedPins
			}
			if !moved {
				t.Fatal("no commit changed FailedPins; the chain does not exercise the recount")
			}
		})
	}
}

// TestECORecheckScoping pins the O(edit) claim of the recount: a single
// move re-validates under a tenth of the design's terminals.
func TestECORecheckScoping(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.05).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) < 400 {
		t.Fatalf("design too small for the claim: %d instances", len(d.Instances))
	}
	a := NewAnalyzer(d, DefaultConfig())
	sess := NewECOSession(a, a.Run())
	var onNets []*db.Instance
	for _, inst := range d.Instances {
		if len(sess.termsOf[inst.ID]) > 0 {
			onNets = append(onNets, inst)
		}
	}
	inst := onNets[len(onNets)/2]
	res, rep, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: inst.Name, To: geom.Pt(inst.Pos.X+70, inst.Pos.Y)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d instances: a single move rechecked %d of %d pins", len(d.Instances), rep.RecheckedPins, res.Stats.TotalPins)
	if rep.RecheckedPins == 0 || 10*rep.RecheckedPins >= res.Stats.TotalPins {
		t.Errorf("RecheckedPins = %d of %d total, want (0, 10%%)", rep.RecheckedPins, res.Stats.TotalPins)
	}
}
