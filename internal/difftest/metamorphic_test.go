package difftest

import (
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
)

// apKey identifies one access point in design coordinates.
type apKey struct {
	pos   geom.Point
	layer int
}

// termAPs collects, per (instance name, pin name), the design-coordinate set
// of all generated access points, mapped through f.
func termAPs(d *db.Design, res *pao.Result, f func(apKey) apKey) map[[2]string]map[apKey]bool {
	out := make(map[[2]string]map[apKey]bool)
	for _, inst := range d.Instances {
		ua := res.UAFor(inst)
		if ua == nil {
			continue
		}
		for _, pa := range ua.Pins {
			set := make(map[apKey]bool, len(pa.APs))
			for _, ap := range pa.APs {
				set[f(apKey{pos: ua.TranslateTo(inst, ap.Pos), layer: ap.Layer})] = true
			}
			out[[2]string{inst.Name, pa.Pin.Name}] = set
		}
	}
	return out
}

func sameAPSets(t *testing.T, what string, a, b map[[2]string]map[apKey]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d terms vs %d", what, len(a), len(b))
	}
	bad := 0
	for k, sa := range a {
		sb, ok := b[k]
		if !ok {
			t.Fatalf("%s: term %v missing", what, k)
		}
		if len(sa) != len(sb) {
			t.Errorf("%s: %v: %d APs vs %d", what, k, len(sa), len(sb))
			bad++
		} else {
			for ap := range sa {
				if !sb[ap] {
					t.Errorf("%s: %v: AP %v/%d unmatched", what, k, ap.pos, ap.layer)
					bad++
					break
				}
			}
		}
		if bad > 5 {
			t.Fatalf("%s: too many mismatches, stopping", what)
		}
	}
}

// TestTranslationInvariance: shifting the whole design (die, tracks, rows,
// instances, IO pins) by a fixed delta must shift every access point by
// exactly that delta and leave every count and pattern selection unchanged.
func TestTranslationInvariance(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	base, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := suite.Generate(spec) // deterministic: an identical twin
	if err != nil {
		t.Fatal(err)
	}
	const dx, dy = 12340, 7770
	Translate(moved, dx, dy)

	r1 := pao.NewAnalyzer(base, pao.DefaultConfig()).Run()
	r2 := pao.NewAnalyzer(moved, pao.DefaultConfig()).Run()

	if r1.Stats.Counts() != r2.Stats.Counts() {
		t.Fatalf("stats differ under translation:\nbase  %+v\nmoved %+v", r1.Stats.Counts(), r2.Stats.Counts())
	}
	for id, sel := range r1.Selected {
		if r2.Selected[id] != sel {
			t.Fatalf("instance %d: selected pattern %d vs %d", id, sel, r2.Selected[id])
		}
	}
	a1 := termAPs(base, r1, func(k apKey) apKey {
		k.pos = geom.Pt(k.pos.X+dx, k.pos.Y+dy)
		return k
	})
	a2 := termAPs(moved, r2, func(k apKey) apKey { return k })
	sameAPSets(t, "translate", a1, a2)
}

// TestMirrorOrientationEquivalence: reflecting the design about a vertical
// axis swaps every instance to its mirrored orientation (N<->FN, S<->FS, ...).
// The analysis is geometric, so the class structure and every per-pin access
// point set must mirror exactly; pattern selection may tie-break differently
// and is deliberately out of scope here.
func TestMirrorOrientationEquivalence(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	base, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mir, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := MirrorX(mir)

	r1 := pao.NewAnalyzer(base, pao.DefaultConfig()).Run()
	r2 := pao.NewAnalyzer(mir, pao.DefaultConfig()).Run()

	s1, s2 := r1.Stats.Counts(), r2.Stats.Counts()
	if s1.NumUnique != s2.NumUnique || s1.TotalAPs != s2.TotalAPs ||
		s1.OffTrackAPs != s2.OffTrackAPs || s1.TotalPins != s2.TotalPins {
		t.Fatalf("aggregate stats differ under mirror:\nbase   %+v\nmirror %+v", s1, s2)
	}
	a1 := termAPs(base, r1, func(k apKey) apKey {
		k.pos = geom.Pt(c-k.pos.X, k.pos.Y)
		return k
	})
	a2 := termAPs(mir, r2, func(k apKey) apKey { return k })
	sameAPSets(t, "mirror", a1, a2)
}

// TestWorkersEquivalence: the Steps 1-2 fan-out is across independent
// unique-instance classes, so any worker count must give byte-identical
// results — counts, pattern selection and per-term access points.
func TestWorkersEquivalence(t *testing.T) {
	spec := suite.Testcases[3].Scale(0.004).WithSeed(7)
	d, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	seq := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	cfg := pao.DefaultConfig()
	cfg.Workers = 8
	par := pao.NewAnalyzer(d, cfg).Run()

	if seq.Stats.Counts() != par.Stats.Counts() {
		t.Fatalf("stats differ across workers:\nseq %+v\npar %+v", seq.Stats.Counts(), par.Stats.Counts())
	}
	if len(seq.Selected) != len(par.Selected) {
		t.Fatalf("selected %d vs %d instances", len(seq.Selected), len(par.Selected))
	}
	for id, sel := range seq.Selected {
		if par.Selected[id] != sel {
			t.Fatalf("instance %d: selected pattern %d vs %d", id, sel, par.Selected[id])
		}
	}
	id := func(k apKey) apKey { return k }
	sameAPSets(t, "workers", termAPs(d, seq, id), termAPs(d, par, id))
}

// TestECOPhaseMoveMatchesFullRun: after an ECO script moves instances to new
// placement phases, every net terminal must have the same selected access
// point, and the result the same failed-pin count, as a from-scratch analysis
// of the mutated design.
func TestECOPhaseMoveMatchesFullRun(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	d, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	sess := pao.NewECOSession(a, a.Run())

	// Shift a few spread-out instances by half an M1 pitch: a track phase the
	// design has never seen, forcing fresh class analysis.
	var ops []pao.ECOOp
	for i := 1; i <= 3; i++ {
		inst := d.Instances[i*len(d.Instances)/4]
		ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: geom.Pt(inst.Pos.X+70, inst.Pos.Y)})
	}
	res, rep, err := sess.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewClasses == 0 {
		t.Fatal("half-pitch moves created no class; the premise is broken")
	}

	fresh := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	if res.Stats.FailedPins != fresh.Stats.FailedPins {
		t.Errorf("failed pins: eco %d vs fresh %d", res.Stats.FailedPins, fresh.Stats.FailedPins)
	}
	for _, net := range d.Nets {
		for _, term := range net.Terms {
			ea := res.AccessPointFor(term.Inst, term.Pin)
			fa := fresh.AccessPointFor(term.Inst, term.Pin)
			switch {
			case ea == nil && fa == nil:
			case ea == nil || fa == nil:
				t.Fatalf("%s/%s: nil mismatch (eco %v, fresh %v)", term.Inst.Name, term.Pin.Name, ea, fa)
			case ea.Pos != fa.Pos || ea.Layer != fa.Layer:
				t.Fatalf("%s/%s: eco %v vs fresh %v", term.Inst.Name, term.Pin.Name, ea, fa)
			}
		}
	}
}
