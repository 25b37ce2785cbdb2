package pao

import (
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/stdcell"
	"repro/internal/suite"
	"repro/internal/tech"
)

// TestMultiHeightCells covers the paper's future-work item (i): a
// double-height cell mixed with single-height neighbors analyzes cleanly —
// the framework is height-agnostic by construction.
func TestMultiHeightCells(t *testing.T) {
	tt := tech.N45()
	d := db.NewDesign("multiheight", tt)
	d.Die = geom.R(0, 0, 28000, 14000)
	for _, l := range tt.Metals {
		extent := d.Die.XH
		if l.Dir == tech.Horizontal {
			extent = d.Die.YH
		}
		d.Tracks = append(d.Tracks, db.TrackPattern{
			Layer: l.Num, WireDir: l.Dir, Start: l.Pitch / 2,
			Num: int(extent / l.Pitch), Step: l.Pitch,
		})
	}
	lib := stdcell.MustGenerate(tt, stdcell.Options{})
	for _, m := range lib.Masters {
		if err := d.AddMaster(m); err != nil {
			t.Fatal(err)
		}
	}
	dh := stdcell.MustMultiHeight(tt, "DFF2H", 8)
	if err := d.AddMaster(dh); err != nil {
		t.Fatal(err)
	}
	if dh.Size.Y != 2*tt.SiteHeight {
		t.Fatalf("double-height cell is %d tall", dh.Size.Y)
	}

	// Row 1 (y=1400): double-height cell, then a single-height neighbor
	// abutting it; row 2 (y=2800): another single-height cell beside the
	// double-height cell's upper half.
	inv := d.MasterByName("INVX1")
	add := func(name string, m *db.Master, x, y int64) *db.Instance {
		inst := &db.Instance{Name: name, Master: m, Pos: geom.Pt(x, y), Orient: geom.OrientN}
		if err := d.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	i0 := add("dh0", dh, 0, 1400)
	i1 := add("u1", inv, dh.Size.X, 1400)
	i2 := add("u2", inv, dh.Size.X, 2800)
	for i, a := range d.Instances {
		for _, b := range d.Instances[i+1:] {
			if a.BBox().Overlaps(b.BBox()) {
				t.Fatalf("%s overlaps %s", a.Name, b.Name)
			}
		}
	}
	d.Nets = []*db.Net{
		{Name: "n0", Terms: []db.Term{{Inst: i0, Pin: dh.PinByName("Q")}, {Inst: i1, Pin: inv.PinByName("A")}}},
		{Name: "n1", Terms: []db.Term{{Inst: i0, Pin: dh.PinByName("QN")}, {Inst: i2, Pin: inv.PinByName("A")}}},
		{Name: "n2", Terms: []db.Term{{Inst: i0, Pin: dh.PinByName("D")}, {Inst: i0, Pin: dh.PinByName("CK")}}},
	}

	res := NewAnalyzer(d, DefaultConfig()).Run()
	if res.Stats.FailedPins != 0 {
		t.Fatalf("FailedPins = %d of %d", res.Stats.FailedPins, res.Stats.TotalPins)
	}
	// Every double-height pin got an access point inside the cell.
	for _, pinName := range []string{"D", "CK", "Q", "QN"} {
		ap := res.AccessPointFor(i0, dh.PinByName(pinName))
		if ap == nil {
			t.Fatalf("pin %s has no access point", pinName)
		}
		if !i0.BBox().ContainsPt(ap.Pos) {
			t.Errorf("pin %s AP %v outside the cell", pinName, ap.Pos)
		}
	}
}

// TestParallelEquivalence covers the paper's future-work item (ii):
// multi-threaded analysis returns byte-identical results to the sequential
// run (unique-instance analyses are independent).
func TestParallelEquivalence(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	seq := NewAnalyzer(d, DefaultConfig()).Run()

	cfg := DefaultConfig()
	cfg.Workers = 4
	par := NewAnalyzer(d, cfg).Run()

	if seq.Stats.Counts() != par.Stats.Counts() {
		t.Fatalf("stats differ:\nseq %+v\npar %+v", seq.Stats.Counts(), par.Stats.Counts())
	}
	for _, net := range d.Nets {
		for _, term := range net.Terms {
			a := seq.AccessPointFor(term.Inst, term.Pin)
			b := par.AccessPointFor(term.Inst, term.Pin)
			switch {
			case a == nil && b == nil:
			case a == nil || b == nil:
				t.Fatalf("%s/%s: nil mismatch", term.Inst.Name, term.Pin.Name)
			case a.Pos != b.Pos || a.Layer != b.Layer:
				t.Fatalf("%s/%s: %v vs %v", term.Inst.Name, term.Pin.Name, a, b)
			}
		}
	}
}

// TestECOPhaseMoveIncremental: move an instance to a new placement phase
// with an ECO script, confirm the session analyzed exactly one new class and
// the moved pin keeps clean access, move it back, and check each step
// against a from-scratch analysis of the same placement.
func TestECOPhaseMoveIncremental(t *testing.T) {
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	if res.Stats.FailedPins != 0 {
		t.Fatalf("baseline failed pins = %d", res.Stats.FailedPins)
	}
	uniqueBefore := res.Stats.NumUnique
	sess := NewECOSession(a, res)
	matchesFresh := func(step string, got *Result) {
		t.Helper()
		fresh := NewAnalyzer(d, DefaultConfig()).Run()
		if got.Stats.Counts() != fresh.Stats.Counts() {
			t.Errorf("%s: stats diverge from a fresh analysis:\neco   %+v\nfresh %+v",
				step, got.Stats.Counts(), fresh.Stats.Counts())
		}
	}

	// +70 = half a pitch: a track phase the design has never seen.
	inst := d.Instances[len(d.Instances)/2]
	home := inst.Pos
	res1, rep, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: inst.Name, To: geom.Pt(home.X+70, home.Y)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewClasses != 1 {
		t.Errorf("NewClasses = %d, want 1 (one new phase class)", rep.NewClasses)
	}
	ap := res1.AccessPointFor(inst, inst.Master.SignalPins()[0])
	if ap == nil {
		t.Fatal("moved instance lost access")
	}
	on := false
	for _, s := range inst.PinShapes(inst.Master.SignalPins()[0]) {
		if s.Layer == ap.Layer && s.Rect.ContainsPt(ap.Pos) {
			on = true
		}
	}
	if !on {
		t.Fatalf("AP %v not on the moved pin", ap.Pos)
	}
	matchesFresh("phase move", res1)

	// Moving back to a signature the design already has rebinds to that
	// class and drops the one-member phase class again.
	res2, rep, err := sess.Apply([]ECOOp{{Kind: ECOMove, Inst: inst.Name, To: home}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewClasses != 0 || res2.Stats.NumUnique != uniqueBefore {
		t.Errorf("move home: NewClasses = %d, NumUnique = %d, want 0 and %d",
			rep.NewClasses, res2.Stats.NumUnique, uniqueBefore)
	}
	matchesFresh("move home", res2)
}

// TestLShapedPins: multi-rectangle (polygon) pins run through the maximal-
// rectangle decomposition path and still produce clean access.
func TestLShapedPins(t *testing.T) {
	tt := tech.N45()
	d := db.NewDesign("lshape", tt)
	d.Die = geom.R(0, 0, 28000, 14000)
	for _, l := range tt.Metals {
		extent := d.Die.XH
		if l.Dir == tech.Horizontal {
			extent = d.Die.YH
		}
		d.Tracks = append(d.Tracks, db.TrackPattern{
			Layer: l.Num, WireDir: l.Dir, Start: l.Pitch / 2,
			Num: int(extent / l.Pitch), Step: l.Pitch,
		})
	}
	lib := stdcell.MustGenerate(tt, stdcell.Options{LShapes: true})
	for _, m := range lib.Masters {
		if err := d.AddMaster(m); err != nil {
			t.Fatal(err)
		}
	}
	m := d.MasterByName("LPINX1")
	i0 := &db.Instance{Name: "l0", Master: m, Pos: geom.Pt(0, 0), Orient: geom.OrientN}
	i1 := &db.Instance{Name: "l1", Master: m, Pos: geom.Pt(m.Size.X, 0), Orient: geom.OrientN}
	for _, inst := range []*db.Instance{i0, i1} {
		if err := d.AddInstance(inst); err != nil {
			t.Fatal(err)
		}
	}
	d.Nets = []*db.Net{
		{Name: "n0", Terms: []db.Term{{Inst: i0, Pin: m.PinByName("Y")}, {Inst: i1, Pin: m.PinByName("A")}}},
		{Name: "n1", Terms: []db.Term{{Inst: i1, Pin: m.PinByName("Y")}}},
		{Name: "n2", Terms: []db.Term{{Inst: i0, Pin: m.PinByName("A")}}},
	}
	res := NewAnalyzer(d, DefaultConfig()).Run()
	if res.Stats.FailedPins != 0 {
		t.Fatalf("FailedPins = %d of %d", res.Stats.FailedPins, res.Stats.TotalPins)
	}
	// The Y pin's APs must lie on the pin union; the L shape offers both a
	// horizontal-bar region and a vertical-bar region.
	ua := res.UAFor(i0)
	for _, pa := range ua.Pins {
		if pa.Pin.Name != "Y" {
			continue
		}
		if len(pa.APs) == 0 {
			t.Fatal("L pin has no APs")
		}
		var rects []geom.Rect
		for _, s := range ua.UI.Pivot().PinShapes(pa.Pin) {
			rects = append(rects, s.Rect)
		}
		for _, ap := range pa.APs {
			if !geom.CoversPt(rects, ap.Pos) {
				t.Fatalf("AP %v off the L pin", ap.Pos)
			}
		}
	}
}
