package pao

import (
	"bytes"
	"testing"

	"repro/internal/clitest"
	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/stdcell"
	"repro/internal/suite"
)

// ecoFixture places a row of nine cells from two masters plus a detached cell
// in its own row, and wires a couple of nets so failed-pin accounting has
// terms to count.
func ecoFixture(t *testing.T) (*db.Design, []*db.Instance) {
	t.Helper()
	d := newDesign45("eco")
	ma := &db.Master{Name: "CA", Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{sigPin("A", geom.R(0, 455, 280, 525)), sigPin("B", geom.R(280, 875, 560, 945))}}
	mb := &db.Master{Name: "CB", Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{sigPin("A", geom.R(140, 455, 420, 525))}}
	mustAdd(t, d, ma)
	mustAdd(t, d, mb)
	var insts []*db.Instance
	for i := 0; i < 9; i++ {
		m := ma
		if i%2 == 1 {
			m = mb
		}
		insts = append(insts, mustPlace(t, d, "u"+string(rune('0'+i)), m, int64(i)*560, 0, geom.OrientN))
	}
	insts = append(insts, mustPlace(t, d, "far", ma, 14000, 2800, geom.OrientN))
	// An off-phase placement so the fixture has a class no one else shares.
	insts = append(insts, mustPlace(t, d, "j0", mb, 70, 2800, geom.OrientN))
	d.Nets = append(d.Nets,
		&db.Net{Name: "n0", Terms: []db.Term{{Inst: insts[0], Pin: ma.Pins[0]}, {Inst: insts[1], Pin: mb.Pins[0]}}},
		&db.Net{Name: "n1", Terms: []db.Term{{Inst: insts[2], Pin: ma.Pins[1]}, {Inst: insts[9], Pin: ma.Pins[0]}}},
	)
	return d, insts
}

func TestECOValidationAllOrNothing(t *testing.T) {
	d, insts := ecoFixture(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	sess := NewECOSession(a, res)

	pos := insts[0].Pos
	cases := []struct {
		name string
		ops  []ECOOp
	}{
		{"unknown move target", []ECOOp{
			{Kind: ECOMove, Inst: "u0", To: geom.Pt(5040, 0)},
			{Kind: ECOMove, Inst: "nope", To: geom.Pt(0, 0)},
		}},
		{"swap with itself", []ECOOp{{Kind: ECOSwap, Inst: "u1", Other: "u1"}}},
		{"duplicate insert", []ECOOp{{Kind: ECOInsert, Inst: "u0", Master: "CA", To: geom.Pt(6160, 0)}}},
		{"unknown master", []ECOOp{{Kind: ECOInsert, Inst: "x0", Master: "NOPE", To: geom.Pt(6160, 0)}}},
		{"move after delete", []ECOOp{
			{Kind: ECODelete, Inst: "u3"},
			{Kind: ECOMove, Inst: "u3", To: geom.Pt(0, 2800)},
		}},
	}
	for _, tc := range cases {
		if _, _, err := sess.Apply(tc.ops); err == nil {
			t.Errorf("%s: Apply succeeded, want error", tc.name)
		}
	}
	// All-or-nothing: the failed scripts must not have touched the design.
	if got := len(d.Instances); got != len(insts) {
		t.Fatalf("instances = %d after rejected scripts, want %d", got, len(insts))
	}
	if insts[0].Pos != pos {
		t.Fatalf("u0 moved by a rejected script: %v", insts[0].Pos)
	}
	if d.InstByName("u3") == nil {
		t.Fatal("u3 deleted by a rejected script")
	}
	// The session must still be usable (no transaction stuck in flight).
	if _, _, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: "u0", To: geom.Pt(0, 0)}}); err != nil {
		t.Fatalf("session unusable after rejected scripts: %v", err)
	}
}

func TestECODeleteRemovesInstanceEverywhere(t *testing.T) {
	d, insts := ecoFixture(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	sess := NewECOSession(a, res)

	id := insts[1].ID
	res2, rep, err := sess.Apply([]ECOOp{{Kind: ECODelete, Inst: "u1"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeletedInstances != 1 {
		t.Errorf("DeletedInstances = %d, want 1", rep.DeletedInstances)
	}
	if d.InstByName("u1") != nil {
		t.Error("u1 still resolvable by name")
	}
	if res2.ByInstance[id] != nil {
		t.Error("deleted instance still bound to a class")
	}
	if _, ok := res2.Selected[id]; ok {
		t.Error("deleted instance still has a selection")
	}
	for _, net := range d.Nets {
		for _, term := range net.Terms {
			if term.Inst.ID == id {
				t.Errorf("net %s still has a term on the deleted instance", net.Name)
			}
		}
	}
	// The old result is untouched: its readers still see the pre-ECO class.
	if res.ByInstance[id] == nil {
		t.Error("pre-ECO result lost its binding for the deleted instance")
	}
}

func TestECOInsertCreatesClass(t *testing.T) {
	d, _ := ecoFixture(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	sess := NewECOSession(a, res)

	// An off-phase x lands on a track offset no existing class has.
	res2, rep, err := sess.Apply([]ECOOp{{Kind: ECOInsert, Inst: "nx", Master: "CB", To: geom.Pt(7030, 2800), Orient: geom.OrientN}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewClasses != 1 {
		t.Errorf("NewClasses = %d, want 1", rep.NewClasses)
	}
	inst := d.InstByName("nx")
	if inst == nil {
		t.Fatal("inserted instance not in design")
	}
	ua := res2.ByInstance[inst.ID]
	if ua == nil {
		t.Fatal("inserted instance has no class binding")
	}
	if got, want := ua.UI.Signature(), d.InstanceSignature(inst); got != want {
		t.Errorf("class sig = %s, want %s", got, want)
	}
	if res2.Stats.NumUnique != res.Stats.NumUnique+1 {
		t.Errorf("NumUnique %d -> %d, want +1", res.Stats.NumUnique, res2.Stats.NumUnique)
	}
}

// TestECOSingleMoveScoping pins the headline scoping claim: moving one
// instance re-analyzes far fewer classes than the design has, and re-selects
// far fewer clusters than the design has.
func TestECOSingleMoveScoping(t *testing.T) {
	d, insts := ecoFixture(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	sess := NewECOSession(a, res)

	// Move the detached far cell by one site within its row: same signature,
	// far from everything else.
	_, rep, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: "far", To: insts[9].Pos.Add(geom.Pt(560, 0))}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalClasses < 3 {
		t.Fatalf("fixture too small: %d classes", rep.TotalClasses)
	}
	// Site-aligned move keeps the signature, and "far" is not the pivot of
	// its class... unless it is; either way the bound must hold.
	if rep.ReanalyzedClasses > 1 {
		t.Errorf("ReanalyzedClasses = %d on a single site-aligned move, want <= 1", rep.ReanalyzedClasses)
	}
	if rep.DirtyClusters >= rep.TotalClusters {
		t.Errorf("DirtyClusters = %d of %d, want a strict subset", rep.DirtyClusters, rep.TotalClusters)
	}
	if rep.AffectedInstances != 1 {
		t.Errorf("AffectedInstances = %d, want 1", rep.AffectedInstances)
	}
}

// TestECOMatchesFreshRun applies a mixed script and checks the merged result
// against a from-scratch analysis of the same mutated design — selection and
// failed-pin accounting included. (The byte-identical snapshot gate lives in
// internal/difftest; this is the in-package structural version.)
func TestECOMatchesFreshRun(t *testing.T) {
	d, insts := ecoFixture(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	sess := NewECOSession(a, res)

	ops := []ECOOp{
		{Kind: ECOMove, Inst: "u0", To: geom.Pt(5600, 0)}, // append to row end
		{Kind: ECOSwap, Inst: "u1", Other: "u2"},
		{Kind: ECOInsert, Inst: "nx", Master: "CA", To: geom.Pt(8400, 0), Orient: geom.OrientN},
		{Kind: ECODelete, Inst: "u5"},
	}
	res2, _, err := sess.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewAnalyzer(d, DefaultConfig()).Run()
	if res2.Stats.Counts() != fresh.Stats.Counts() {
		t.Errorf("stats diverge:\neco:   %+v\nfresh: %+v", res2.Stats.Counts(), fresh.Stats.Counts())
	}
	if len(res2.Selected) != len(fresh.Selected) {
		t.Errorf("selected sizes: eco %d, fresh %d", len(res2.Selected), len(fresh.Selected))
	}
	for id, ni := range fresh.Selected {
		if got, ok := res2.Selected[id]; !ok || got != ni {
			t.Errorf("instance %d: selected %d (present %v), fresh %d", id, got, ok, ni)
		}
	}
	for _, inst := range d.Instances {
		fua, eua := fresh.ByInstance[inst.ID], res2.ByInstance[inst.ID]
		if (fua == nil) != (eua == nil) {
			t.Errorf("%s: binding mismatch (fresh %v, eco %v)", inst.Name, fua != nil, eua != nil)
			continue
		}
		if fua == nil {
			continue
		}
		if fua.UI.Signature() != eua.UI.Signature() {
			t.Errorf("%s: sig %s vs %s", inst.Name, eua.UI.Signature(), fua.UI.Signature())
		}
	}
	for _, net := range d.Nets {
		for _, term := range net.Terms {
			fap, eap := fresh.AccessPointFor(term.Inst, term.Pin), res2.AccessPointFor(term.Inst, term.Pin)
			if (fap == nil) != (eap == nil) {
				t.Errorf("%s/%s: AP presence mismatch", term.Inst.Name, term.Pin.Name)
				continue
			}
			if fap != nil && (fap.Pos != eap.Pos || fap.Layer != eap.Layer) {
				t.Errorf("%s/%s: AP %v/%d vs fresh %v/%d",
					term.Inst.Name, term.Pin.Name, eap.Pos, eap.Layer, fap.Pos, fap.Layer)
			}
		}
	}
	_ = insts
}

// TestECOMoveScopedInLargeClass: on a LEF/DEF-parsed design, a member of a
// class with 20+ members spread across rows moves off its track phase and
// back home — a signature-changing move out of, then into, that class. The
// class is carried copy-on-write both times, so each commit re-selects only
// the clusters the move's old and new extents reach, not every cluster that
// holds a member of the class; and each commit equals a fresh analysis.
func TestECOMoveScopedInLargeClass(t *testing.T) {
	src, err := suite.Generate(suite.Testcases[0].Scale(0.3).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	d := clitest.RoundTrip(t, src)

	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	target := res.Unique[0]
	for _, ua := range res.Unique {
		if len(ua.UI.Insts) > len(target.UI.Insts) {
			target = ua
		}
	}
	if n := len(target.UI.Insts); n < 20 {
		t.Fatalf("largest class has %d members, want >= 20", n)
	}
	sig := target.UI.Signature()
	mover := target.UI.Insts[len(target.UI.Insts)/2] // not the pivot
	home := mover.Pos
	halo := a.ecoHalo()
	sess := NewECOSession(a, res)
	for _, leg := range []struct {
		name string
		to   geom.Point
	}{{"out", home.Add(geom.Pt(70, 0))}, {"home", home}} {
		reach := []geom.Rect{instExtent(mover).Bloat(halo)}
		got, rep, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: mover.Name, To: leg.to}})
		if err != nil {
			t.Fatal(err)
		}
		reach = append(reach, instExtent(mover).Bloat(halo))
		if (got.ByInstance[mover.ID].UI.Signature() == sig) != (leg.to == home) {
			t.Fatalf("%s: move did not change the mover's class; the premise is broken", leg.name)
		}
		if rep.ReanalyzedClasses != rep.NewClasses {
			t.Fatalf("%s: %d classes re-analyzed, %d new; the large class must be carried", leg.name, rep.ReanalyzedClasses, rep.NewClasses)
		}
		// near: the clusters the move can reach; spread: the clusters that
		// hold a member of the large class.
		near, spread := 0, 0
		for _, cl := range d.Clusters() {
			isNear, inClass := false, false
			for _, inst := range cl.Insts {
				ext := instExtent(inst)
				isNear = isNear || ext.Touches(reach[0]) || ext.Touches(reach[1])
				inClass = inClass || got.ByInstance[inst.ID].UI.Signature() == sig
			}
			if isNear {
				near++
			}
			if inClass {
				spread++
			}
		}
		t.Logf("%s: %d dirty clusters; %d within reach, %d hold a class member", leg.name, rep.DirtyClusters, near, spread)
		if spread <= near {
			t.Fatalf("%s: the class sits within the move's reach; the premise is broken", leg.name)
		}
		if rep.DirtyClusters > near {
			t.Errorf("%s: DirtyClusters = %d, want <= %d (the clusters the move's extents reach)", leg.name, rep.DirtyClusters, near)
		}
		fresh := NewAnalyzer(d, DefaultConfig()).Run()
		if !bytes.Equal(EncodeCounts(t, d, DefaultConfig(), got), EncodeCounts(t, d, DefaultConfig(), fresh)) {
			t.Fatalf("%s: ECO result differs from a fresh analysis", leg.name)
		}
	}
}

// TestECOMacroJoinsCarriedClass: a macro belongs to no row cluster, so no
// Step-3 DP re-picks it. One moved and one inserted into a carried macro
// class must still get the class's default pattern — the pick a fresh
// analysis makes.
func TestECOMacroJoinsCarriedClass(t *testing.T) {
	d, _ := ecoFixture(t)
	mac := stdcell.Macro(d.Tech, "MAC", 20, 4, 3)
	mustAdd(t, d, mac)
	// M3 pins: the signature covers the M3 and M4 phases. x = 10010 sits half
	// an M4 pitch off m0's phase; 5600 and 16800 sit on it.
	m0 := mustPlace(t, d, "m0", mac, 0, 5600, geom.OrientN)
	m1 := mustPlace(t, d, "m1", mac, 10010, 5600, geom.OrientN)
	sig := d.InstanceSignature(m0)
	if d.InstanceSignature(m1) == sig {
		t.Fatal("m1 starts in m0's class; the premise is broken")
	}
	a := NewAnalyzer(d, DefaultConfig())
	sess := NewECOSession(a, a.Run())
	res, rep, err := sess.Apply([]ECOOp{
		{Kind: ECOMove, Inst: "m1", To: geom.Pt(5600, 5600)},
		{Kind: ECOInsert, Inst: "m2", Master: "MAC", To: geom.Pt(16800, 5600), Orient: geom.OrientN},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReanalyzedClasses != 0 {
		t.Fatalf("ReanalyzedClasses = %d, want 0: m0's class must be carried", rep.ReanalyzedClasses)
	}
	for _, inst := range []*db.Instance{m1, d.InstByName("m2")} {
		if ua := res.ByInstance[inst.ID]; ua == nil || ua.UI.Signature() != sig {
			t.Fatalf("%s did not join m0's class", inst.Name)
		}
		if res.PatternFor(inst) == nil {
			t.Errorf("%s: no valid pick (Selected %d of %d patterns)", inst.Name,
				res.Selected[inst.ID], len(res.ByInstance[inst.ID].Patterns))
		}
	}
	fresh := NewAnalyzer(d, DefaultConfig()).Run()
	if !bytes.Equal(EncodeCounts(t, d, DefaultConfig(), res), EncodeCounts(t, d, DefaultConfig(), fresh)) {
		t.Fatal("ECO result differs from a fresh analysis")
	}
}
