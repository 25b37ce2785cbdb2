package pao

import (
	"testing"
	"testing/quick"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/tech"
)

// newDesign45 builds an empty N45 design with M1 horizontal tracks and M2
// vertical tracks at pitch 140 starting at 70 (so cell-local geometry at
// x = k*140 placements keeps a stable phase).
func newDesign45(name string) *db.Design {
	tt := tech.N45()
	d := db.NewDesign(name, tt)
	d.Die = geom.R(0, 0, 28000, 14000)
	for layer := 1; layer <= 9; layer++ {
		l := tt.Metal(layer)
		num := 200
		if l.Dir == tech.Horizontal {
			d.Tracks = append(d.Tracks, db.TrackPattern{Layer: layer, WireDir: tech.Horizontal, Start: 70, Num: num, Step: l.Pitch})
		} else {
			d.Tracks = append(d.Tracks, db.TrackPattern{Layer: layer, WireDir: tech.Vertical, Start: 70, Num: num, Step: l.Pitch})
		}
	}
	return d
}

func sigPin(name string, rects ...geom.Rect) *db.MPin {
	p := &db.MPin{Name: name, Dir: db.DirInput, Use: db.UseSignal}
	for _, r := range rects {
		p.Shapes = append(p.Shapes, db.Shape{Layer: 1, Rect: r})
	}
	return p
}

func mustAdd(t *testing.T, d *db.Design, m *db.Master) {
	t.Helper()
	if err := d.AddMaster(m); err != nil {
		t.Fatal(err)
	}
}

func mustPlace(t *testing.T, d *db.Design, name string, m *db.Master, x, y int64, o geom.Orient) *db.Instance {
	t.Helper()
	inst := &db.Instance{Name: name, Master: m, Pos: geom.Pt(x, y), Orient: o}
	if err := d.AddInstance(inst); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestStep1AlignedBar: a pin bar centered on a routing track yields on-track
// access points with valid up-vias, early-terminating around k = 3.
func TestStep1AlignedBar(t *testing.T) {
	d := newDesign45("aligned")
	m := &db.Master{Name: "ALN", Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{sigPin("A", geom.R(0, 455, 280, 525))}}
	mustAdd(t, d, m)
	mustPlace(t, d, "u0", m, 0, 0, geom.OrientN)

	a := NewAnalyzer(d, DefaultConfig())
	uis := d.UniqueInstances()
	if len(uis) != 1 {
		t.Fatalf("unique instances = %d", len(uis))
	}
	ua := a.AnalyzeUnique(uis[0])
	if len(ua.Pins) != 1 {
		t.Fatalf("pins = %d", len(ua.Pins))
	}
	aps := ua.Pins[0].APs
	// The half-track combination adds x=140 and x=280 together before the
	// early-termination check, so the result slightly exceeds k=3 — exactly
	// the "slightly larger than k" behaviour Section III-A describes.
	if len(aps) != 4 {
		for _, ap := range aps {
			t.Logf("ap %v cost %d vias %d", ap, ap.Cost(), len(ap.Vias))
		}
		t.Fatalf("got %d APs, want 4", len(aps))
	}
	wantPts := map[geom.Point]bool{
		geom.Pt(70, 490): true, geom.Pt(210, 490): true,
		geom.Pt(140, 490): true, geom.Pt(280, 490): true,
	}
	onTrack := 0
	for _, ap := range aps {
		if !wantPts[ap.Pos] {
			t.Errorf("unexpected AP position %v", ap.Pos)
		}
		if !ap.HasUp() || ap.Primary() == nil {
			t.Errorf("AP %v lacks up-via access", ap)
		}
		if ap.TypeY != OnTrack {
			t.Errorf("AP %v TypeY = %v, want onTrack", ap, ap.TypeY)
		}
		if !ap.OffTrack() {
			onTrack++
		}
	}
	if onTrack != 2 {
		t.Errorf("on-track APs = %d, want 2 (x=70 and x=210)", onTrack)
	}
}

// TestStep1OffTrackBar: a pin bar with no track inside its span yields
// shape-center (off-track) access points — the Fig. 9 behaviour.
func TestStep1OffTrackBar(t *testing.T) {
	d := newDesign45("offtrack")
	m := &db.Master{Name: "OFT", Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{sigPin("A", geom.R(0, 390, 280, 460))}}
	mustAdd(t, d, m)
	mustPlace(t, d, "u0", m, 0, 0, geom.OrientN)

	a := NewAnalyzer(d, DefaultConfig())
	ua := a.AnalyzeUnique(d.UniqueInstances()[0])
	aps := ua.Pins[0].APs
	if len(aps) == 0 {
		t.Fatal("no APs for off-track bar; shape-center must rescue it")
	}
	for _, ap := range aps {
		if !ap.OffTrack() {
			t.Errorf("AP %v should be off-track", ap)
		}
		if ap.TypeY != ShapeCenter {
			t.Errorf("AP %v TypeY = %v, want shapeCenter", ap, ap.TypeY)
		}
		if ap.Pos.Y != 425 {
			t.Errorf("AP %v y = %d, want 425 (bar center)", ap, ap.Pos.Y)
		}
		if !ap.HasUp() {
			t.Errorf("AP %v lacks via", ap)
		}
	}
}

// TestStep1EOLFiltering: an access point whose via enclosure's end-of-line
// window reaches a neighboring pin is rejected during Step 1.
func TestStep1EOLFiltering(t *testing.T) {
	d := newDesign45("eol")
	m := &db.Master{Name: "EOLC", Class: db.ClassCore, Size: geom.Pt(1120, 1400),
		Pins: []*db.MPin{
			sigPin("A", geom.R(0, 455, 280, 525)),
			sigPin("B", geom.R(350, 455, 630, 525)),
		}}
	mustAdd(t, d, m)
	mustPlace(t, d, "u0", m, 0, 0, geom.OrientN)

	a := NewAnalyzer(d, DefaultConfig())
	ua := a.AnalyzeUnique(d.UniqueInstances()[0])
	var pa *PinAccess
	for _, p := range ua.Pins {
		if p.Pin.Name == "A" {
			pa = p
		}
	}
	if pa == nil || len(pa.APs) == 0 {
		t.Fatal("pin A has no APs")
	}
	for _, ap := range pa.APs {
		if ap.Pos.X == 210 {
			t.Errorf("AP at x=210 must be EOL-filtered (enclosure end 90nm window hits pin B at 350): %v", ap)
		}
	}
}

// tallPinMaster builds the EDGE master used by the step-2/3 tests: two
// two-track-tall pins on the same row, Z flush against the right cell edge.
func tallPinMaster(name string) *db.Master {
	return &db.Master{Name: name, Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{
			sigPin("A", geom.R(70, 490, 210, 630)),
			sigPin("Z", geom.R(280, 490, 560, 630)),
		}}
}

// TestStep2PatternsBCA: pattern generation emits multiple patterns whose
// boundary access points differ, and every pattern is internally via-clean.
func TestStep2PatternsBCA(t *testing.T) {
	d := newDesign45("bca")
	m := tallPinMaster("EDGE")
	mustAdd(t, d, m)
	mustPlace(t, d, "u0", m, 0, 0, geom.OrientN)

	a := NewAnalyzer(d, DefaultConfig())
	ua := a.AnalyzeUnique(d.UniqueInstances()[0])
	if len(ua.Pins) != 2 {
		t.Fatalf("pins = %d", len(ua.Pins))
	}
	if ua.Pins[0].Pin.Name != "A" || ua.Pins[1].Pin.Name != "Z" {
		t.Fatalf("pin order = %s,%s; want A,Z", ua.Pins[0].Pin.Name, ua.Pins[1].Pin.Name)
	}
	if len(ua.Patterns) < 2 {
		t.Fatalf("got %d patterns, want >= 2 with BCA", len(ua.Patterns))
	}
	// Tall bars: no on-track y is legal (enclosure would step off the bar).
	for _, pa := range ua.Pins {
		for _, ap := range pa.APs {
			if ap.TypeY == OnTrack {
				t.Errorf("tall-bar AP %v must not be on-track in y", ap)
			}
		}
	}
	// Patterns are internally clean and differ in at least one boundary AP.
	seenBoundary := map[[2]geom.Point]bool{}
	for _, p := range ua.Patterns {
		a1 := ua.APOf(p, 0)
		a2 := ua.APOf(p, 1)
		if a1 == nil || a2 == nil {
			t.Fatalf("pattern misses a pin choice: %+v", p.Choice)
		}
		if !ViaPairClean(d.Tech, a1.Primary(), a1.Pos, 1, a2.Primary(), a2.Pos, 2) {
			t.Errorf("pattern %v/%v has conflicting vias", a1, a2)
		}
		key := [2]geom.Point{a1.Pos, a2.Pos}
		if seenBoundary[key] {
			t.Errorf("duplicate pattern boundary %v", key)
		}
		seenBoundary[key] = true
	}
}

// edgeConflictMaster builds the master used by the Step-3 tests: two
// single-track pins B and Z on the same row. Each pin has exactly two access
// points differing in x: a cost-0 on-track one and a cost-1 half-track one.
// When two instances abut, the cheap choices conflict across the boundary:
// the left Z's enclosure overhangs to the cell edge and its end-of-line
// window reaches the right B's pin bar (and vice versa) — an inter-cell
// conflict invisible to the isolated Steps 1-2 that BCA + Step 3 must
// resolve.
func edgeConflictMaster(name string) *db.Master {
	return &db.Master{Name: name, Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{
			sigPin("B", geom.R(70, 455, 210, 525)),
			sigPin("Z", geom.R(350, 455, 490, 525)),
		}}
}

// buildEdgeDesign places two edgeConflictMaster instances flush against each
// other (560 = 4*140 keeps the track phase, so both share one unique
// instance).
func buildEdgeDesign(t *testing.T) *db.Design {
	t.Helper()
	d := newDesign45("edge2")
	m := edgeConflictMaster("EDGE2")
	mustAdd(t, d, m)
	i0 := mustPlace(t, d, "i0", m, 0, 0, geom.OrientN)
	i1 := mustPlace(t, d, "i1", m, 560, 0, geom.OrientN)
	pinB, pinZ := m.PinByName("B"), m.PinByName("Z")
	d.Nets = []*db.Net{
		{Name: "n0", Terms: []db.Term{{Inst: i0, Pin: pinB}, {Inst: i0, Pin: pinZ}}},
		{Name: "n1", Terms: []db.Term{{Inst: i1, Pin: pinB}, {Inst: i1, Pin: pinZ}}},
	}
	return d
}

func TestStep3ResolvesInterCellConflict(t *testing.T) {
	d := buildEdgeDesign(t)
	// Both instances share one unique instance (560 = 4 * 140 keeps phase).
	if got := len(d.UniqueInstances()); got != 1 {
		t.Fatalf("unique instances = %d, want 1", got)
	}
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	if res.Stats.TotalPins != 4 {
		t.Fatalf("TotalPins = %d, want 4", res.Stats.TotalPins)
	}
	if res.Stats.FailedPins != 0 {
		t.Fatalf("FailedPins = %d, want 0 with BCA + Step 3", res.Stats.FailedPins)
	}
}

func TestWithoutBCAFails(t *testing.T) {
	d := buildEdgeDesign(t)
	cfg := DefaultConfig()
	cfg.BCA = false
	a := NewAnalyzer(d, cfg)
	res := a.Run()
	if res.Stats.PatternsBuilt != 1 {
		t.Fatalf("w/o BCA built %d patterns, want 1", res.Stats.PatternsBuilt)
	}
	if res.Stats.FailedPins != 2 {
		t.Fatalf("w/o BCA FailedPins = %d, want 2 (i0.Z and i1.B; the Table III mechanism)", res.Stats.FailedPins)
	}
	// Sanity: with BCA the same design is clean (TestStep3ResolvesInterCellConflict).
}

func TestTranslateAndAccessPointFor(t *testing.T) {
	d := buildEdgeDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	i0 := d.InstByName("i0")
	i1 := d.InstByName("i1")
	m := d.MasterByName("EDGE2")
	ap0 := res.AccessPointFor(i0, m.PinByName("B"))
	ap1 := res.AccessPointFor(i1, m.PinByName("B"))
	if ap0 == nil || ap1 == nil {
		t.Fatal("missing access points")
	}
	// i1 = i0 translated by (560, 0); access points may differ by pattern
	// choice but must land on the translated pin shape.
	if ap1.Pos.X <= 560 {
		t.Errorf("i1 AP %v not translated into i1's cell", ap1.Pos)
	}
	shapes := i1.PinShapes(m.PinByName("B"))
	on := false
	for _, s := range shapes {
		if s.Rect.ContainsPt(ap1.Pos) {
			on = true
		}
	}
	if !on {
		t.Errorf("i1 AP %v not on the pin shape", ap1.Pos)
	}
	// TranslateTo round trip.
	ua := res.Unique[0]
	p := geom.Pt(100, 200)
	if got := ua.TranslateTo(ua.UI.Pivot(), p); got != p {
		t.Errorf("TranslateTo to the pivot must be identity, got %v", got)
	}
}

func TestResultStatsPopulated(t *testing.T) {
	d := buildEdgeDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	if res.Stats.NumUnique != 1 {
		t.Errorf("NumUnique = %d", res.Stats.NumUnique)
	}
	if res.Stats.TotalAPs == 0 {
		t.Error("TotalAPs = 0")
	}
	if res.Stats.OffTrackAPs == 0 {
		t.Error("OffTrackAPs = 0 (half-track x APs must count as off-track)")
	}
	if res.Stats.PatternsBuilt < 2 {
		t.Errorf("PatternsBuilt = %d", res.Stats.PatternsBuilt)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.K != 3 || c.Alpha != 0.3 || c.MaxPatterns != 1 {
		// BCA=false in the zero config forces MaxPatterns to 1.
		t.Errorf("normalized zero config = %+v", c)
	}
	c2 := DefaultConfig().normalized()
	if c2.MaxPatterns != 3 || !c2.BCA {
		t.Errorf("normalized default = %+v", c2)
	}
	restricted := DefaultConfig()
	restricted.AllowedTypes = []CoordType{OnTrack}
	if restricted.typeAllowed(HalfTrack) || !restricted.typeAllowed(OnTrack) {
		t.Error("typeAllowed broken")
	}
	if !DefaultConfig().typeAllowed(EncBoundary) {
		t.Error("empty AllowedTypes must allow everything")
	}
}

func TestCoordTypeStrings(t *testing.T) {
	if OnTrack.String() != "onTrack" || EncBoundary.String() != "encBoundary" {
		t.Error("CoordType.String broken")
	}
	if DirUp.String() != "up" || DirSouth.String() != "S" {
		t.Error("AccessDir.String broken")
	}
}

func TestPinWithoutAccess(t *testing.T) {
	d := newDesign45("noap")
	// A pin hemmed in by obstructions above and below: every via enclosure
	// variant violates spacing against the blockages, so no access point
	// survives validation.
	m := &db.Master{Name: "BAD", Class: db.ClassCore, Size: geom.Pt(560, 1400),
		Pins: []*db.MPin{
			sigPin("X", geom.R(0, 400, 60, 460)),
		},
		Obs: []db.Shape{
			{Layer: 1, Rect: geom.R(0, 500, 560, 570)},
			{Layer: 1, Rect: geom.R(0, 290, 560, 360)},
		}}
	mustAdd(t, d, m)
	i0 := mustPlace(t, d, "u0", m, 0, 0, geom.OrientN)
	d.Nets = []*db.Net{{Name: "n", Terms: []db.Term{{Inst: i0, Pin: m.PinByName("X")}}}}

	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	if res.Stats.FailedPins != 1 {
		t.Fatalf("FailedPins = %d, want 1 (pin has no legal via)", res.Stats.FailedPins)
	}
}

// Property: via pair compatibility is symmetric.
func TestViaPairCleanSymmetry(t *testing.T) {
	tt := tech.N45()
	vias := tt.Vias
	f := func(i, j uint8, dx, dy int16) bool {
		v1 := vias[int(i)%len(vias)]
		v2 := vias[int(j)%len(vias)]
		p1 := geom.Pt(10000, 10000)
		p2 := p1.Add(geom.Pt(int64(dx), int64(dy)))
		a := ViaPairClean(tt, v1, p1, 1, v2, p2, 2)
		b := ViaPairClean(tt, v2, p2, 2, v1, p1, 1)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: far-apart vias are always compatible; coincident different-net
// vias never are. Neither verdict allocates: Steps 2 and 3 call the
// predicate for every candidate pair.
func TestViaPairCleanDistance(t *testing.T) {
	tt := tech.N45()
	for _, v1 := range tt.Vias {
		for _, v2 := range tt.Vias {
			p := geom.Pt(5000, 5000)
			far := p.Add(geom.Pt(10000, 10000))
			if !ViaPairClean(tt, v1, p, 1, v2, far, 2) {
				t.Fatalf("distant %s/%s must be clean", v1.Name, v2.Name)
			}
			if n := testing.AllocsPerRun(10, func() { ViaPairClean(tt, v1, p, 1, v2, far, 2) }); n != 0 {
				t.Fatalf("clean %s/%s pair allocates %v times per call, want 0", v1.Name, v2.Name, n)
			}
			if v1.CutBelow == v2.CutBelow {
				if ViaPairClean(tt, v1, p, 1, v2, p, 2) {
					t.Fatalf("coincident %s/%s (different nets) must conflict", v1.Name, v2.Name)
				}
				if n := testing.AllocsPerRun(10, func() { ViaPairClean(tt, v1, p, 1, v2, p, 2) }); n != 0 {
					t.Fatalf("dirty %s/%s pair allocates %v times per call, want 0", v1.Name, v2.Name, n)
				}
			}
		}
	}
	// Nil vias never conflict.
	if !ViaPairClean(tt, nil, geom.Pt(0, 0), 1, tt.Vias[0], geom.Pt(0, 0), 2) {
		t.Fatal("nil via must be compatible")
	}
}
