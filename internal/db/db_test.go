package db

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/tech"
)

// testMaster builds a 2-site-wide core cell with two M1 pins and an M1 obs.
func testMaster(name string, t *tech.Technology) *Master {
	w := 2 * t.SiteWidth
	h := t.SiteHeight
	mw := t.Metal(1).Width
	return &Master{
		Name:  name,
		Class: ClassCore,
		Size:  geom.Pt(w, h),
		Pins: []*MPin{
			{Name: "A", Dir: DirInput, Use: UseSignal,
				Shapes: []Shape{{Layer: 1, Rect: geom.R(50, 200, 50+mw, h-200)}}},
			{Name: "Z", Dir: DirOutput, Use: UseSignal,
				Shapes: []Shape{{Layer: 1, Rect: geom.R(w-50-mw, 200, w-50, h-200)}}},
			{Name: "VDD", Dir: DirInout, Use: UsePower,
				Shapes: []Shape{{Layer: 1, Rect: geom.R(0, h-mw, w, h)}}},
		},
		Obs: []Shape{{Layer: 1, Rect: geom.R(w/2-mw, 300, w/2+mw, 600)}},
	}
}

func newTestDesign(t *testing.T) (*Design, *Master) {
	t.Helper()
	tt := tech.N45()
	d := NewDesign("unit", tt)
	d.Die = geom.R(0, 0, 20000, 14000)
	m := testMaster("AND2X1", tt)
	if err := d.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	// Tracks: M1 horizontal wires (y tracks), M2 vertical wires (x tracks).
	d.Tracks = []TrackPattern{
		{Layer: 1, WireDir: tech.Horizontal, Start: 70, Num: 100, Step: 140},
		{Layer: 2, WireDir: tech.Vertical, Start: 70, Num: 142, Step: 140},
	}
	return d, m
}

func TestAddAndLookup(t *testing.T) {
	d, m := newTestDesign(t)
	if err := d.AddMaster(&Master{Name: m.Name}); err == nil {
		t.Fatal("duplicate master must fail")
	}
	inst := &Instance{Name: "u1", Master: m, Pos: geom.Pt(380, 0), Orient: geom.OrientN}
	if err := d.AddInstance(inst); err != nil {
		t.Fatal(err)
	}
	if err := d.AddInstance(&Instance{Name: "u1", Master: m}); err == nil {
		t.Fatal("duplicate instance must fail")
	}
	if d.InstByName("u1") != inst {
		t.Fatal("InstByName broken")
	}
	if d.MasterByName("AND2X1") != m {
		t.Fatal("MasterByName broken")
	}
	if d.MasterByName("nope") != nil || d.InstByName("nope") != nil {
		t.Fatal("missing lookups must return nil")
	}
	if inst.ID != 0 {
		t.Fatalf("first instance ID = %d, want 0", inst.ID)
	}
}

func TestPinShapesTransform(t *testing.T) {
	d, m := newTestDesign(t)
	_ = d
	instN := &Instance{Name: "n", Master: m, Pos: geom.Pt(1000, 2000), Orient: geom.OrientN}
	instFS := &Instance{Name: "fs", Master: m, Pos: geom.Pt(1000, 2000), Orient: geom.OrientFS}
	pin := m.PinByName("A")

	sN := instN.PinShapes(pin)
	if len(sN) != 1 || sN[0].Layer != 1 {
		t.Fatalf("PinShapes = %+v", sN)
	}
	wantN := geom.R(1050, 2200, 1120, 2000+m.Size.Y-200)
	if sN[0].Rect != wantN {
		t.Fatalf("N pin shape = %v, want %v", sN[0].Rect, wantN)
	}
	sFS := instFS.PinShapes(pin)
	// FS mirrors about x: y span flips within the cell height.
	wantFS := geom.R(1050, 2000+200, 1120, 2000+m.Size.Y-200)
	if sFS[0].Rect != wantFS {
		t.Fatalf("FS pin shape = %v, want %v", sFS[0].Rect, wantFS)
	}
	if len(instN.ObsShapes()) != 1 {
		t.Fatal("ObsShapes missing")
	}
	if !instN.BBox().ContainsRect(sN[0].Rect) {
		t.Fatal("pin shape escapes instance bbox")
	}
}

func TestMasterHelpers(t *testing.T) {
	_, m := newTestDesign(t)
	if got := len(m.SignalPins()); got != 2 {
		t.Fatalf("SignalPins = %d, want 2 (power excluded)", got)
	}
	if m.PinByName("VDD") == nil || m.PinByName("missing") != nil {
		t.Fatal("PinByName broken")
	}
	a := m.PinByName("A")
	bb := a.BBox()
	if bb.Empty() {
		t.Fatal("pin bbox empty")
	}
	if got := len(a.ShapesOnLayer(1)); got != 1 {
		t.Fatalf("ShapesOnLayer(1) = %d", got)
	}
	if got := len(a.ShapesOnLayer(2)); got != 0 {
		t.Fatalf("ShapesOnLayer(2) = %d", got)
	}
	if (&MPin{}).BBox() != (geom.Rect{}) {
		t.Fatal("empty pin bbox must be zero")
	}
}

func TestTrackPattern(t *testing.T) {
	tp := TrackPattern{Layer: 1, WireDir: tech.Horizontal, Start: 70, Num: 10, Step: 140}
	if tp.Last() != 70+9*140 {
		t.Fatalf("Last = %d", tp.Last())
	}
	if !tp.IsOnTrack(70) || !tp.IsOnTrack(210) || !tp.IsOnTrack(tp.Last()) {
		t.Fatal("IsOnTrack false negatives")
	}
	if tp.IsOnTrack(140) || tp.IsOnTrack(69) || tp.IsOnTrack(tp.Last()+140) {
		t.Fatal("IsOnTrack false positives")
	}
	got := tp.CoordsIn(200, 500)
	want := []int64{210, 350, 490}
	if len(got) != len(want) {
		t.Fatalf("CoordsIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CoordsIn = %v, want %v", got, want)
		}
	}
	if tp.Offset(70) != 0 || tp.Offset(75) != 5 || tp.Offset(65) != 135 {
		t.Fatalf("Offset broken: %d %d %d", tp.Offset(70), tp.Offset(75), tp.Offset(65))
	}
	if got := tp.CoordsIn(10000, 20000); got != nil {
		t.Fatalf("CoordsIn beyond pattern = %v", got)
	}
}

// TestTrackPatternRange: a walk from Range's first coordinate by Step to its
// last visits exactly the pattern's tracks inside the window, for windows
// inside, across, at the ends of and beyond the pattern; a pattern without
// tracks or step has none.
func TestTrackPatternRange(t *testing.T) {
	for _, tp := range []TrackPattern{
		{Start: 70, Num: 10, Step: 140},
		{Start: -35, Num: 3, Step: 70},
		{Start: 70, Num: 0, Step: 140},
		{Start: 70, Num: 5, Step: 0},
	} {
		for _, w := range [][2]int64{{200, 500}, {-1000, 100000}, {10000, 20000}, {71, 209}, {70, 70}, {1330, 1330}, {-200, -100}, {500, 200}} {
			var got, want []int64
			first, last := tp.Range(w[0], w[1])
			for c := first; c <= last; c += tp.Step {
				got = append(got, c)
			}
			for k := 0; k < tp.Num && tp.Step > 0; k++ {
				if c := tp.Start + int64(k)*tp.Step; c >= w[0] && c <= w[1] {
					want = append(want, c)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%+v in [%d, %d]: Range walks %v, want %v", tp, w[0], w[1], got, want)
			}
		}
	}
}

// TestAppendAccessTracks: AppendAccessTracks and AppendLayers append to
// their buffers exactly what AccessTracks and Layers return, with and
// without the layer's own non-preferred patterns.
func TestAppendAccessTracks(t *testing.T) {
	d, m := newTestDesign(t)
	junk := TrackPattern{Layer: 9, Start: 1, Num: 1, Step: 1}
	check := func() {
		t.Helper()
		for layer := 0; layer <= 3; layer++ {
			wantP, wantN := d.AccessTracks(layer)
			p, n := d.AppendAccessTracks([]TrackPattern{junk}, []TrackPattern{junk}, layer)
			if !slices.Equal(p[1:], wantP) || !slices.Equal(n[1:], wantN) || p[0] != junk || n[0] != junk {
				t.Fatalf("M%d: appended %+v, %+v; AccessTracks gives %+v, %+v", layer, p, n, wantP, wantN)
			}
		}
	}
	check()
	d.Tracks = append(d.Tracks, TrackPattern{Layer: 1, WireDir: tech.Vertical, Start: 35, Num: 142, Step: 140})
	check()

	pin := &MPin{Shapes: []Shape{{Layer: 3}, {Layer: 1}, {Layer: 3}, {Layer: 2}}}
	if got := pin.AppendLayers([]int{7}); !slices.Equal(got, []int{7, 1, 2, 3}) {
		t.Fatalf("AppendLayers = %v, want [7 1 2 3]", got)
	}
	for _, p := range m.Pins {
		if got := p.AppendLayers([]int{7}); !slices.Equal(got[1:], p.Layers()) {
			t.Fatalf("%s: AppendLayers = %v, Layers = %v", p.Name, got, p.Layers())
		}
	}
}

func TestUniqueInstances(t *testing.T) {
	d, m := newTestDesign(t)
	// Same master+orient, x positions differing by a multiple of the vertical
	// track step (140) and same y phase: same unique instance.
	add := func(name string, x, y int64, o geom.Orient) {
		t.Helper()
		if err := d.AddInstance(&Instance{Name: name, Master: m, Pos: geom.Pt(x, y), Orient: o}); err != nil {
			t.Fatal(err)
		}
	}
	add("a", 0, 0, geom.OrientN)
	add("b", 1400, 0, geom.OrientN)  // x phase 1400%140=0: same class as a
	add("c", 1450, 0, geom.OrientN)  // x phase 50: new class (Fig. 1 situation)
	add("d", 1400, 0, geom.OrientFS) // orientation differs: new class
	add("e", 2800, 70, geom.OrientN) // y phase 0 differs from a's 70: new class

	us := d.UniqueInstances()
	if len(us) != 4 {
		for _, u := range us {
			t.Logf("class %s: %d members", u.Signature(), len(u.Insts))
		}
		t.Fatalf("got %d unique instances, want 4", len(us))
	}
	// Find a+b's class.
	var ab *UniqueInstance
	for _, u := range us {
		for _, i := range u.Insts {
			if i.Name == "a" {
				ab = u
			}
		}
	}
	if ab == nil || len(ab.Insts) != 2 {
		t.Fatalf("a/b class wrong: %+v", ab)
	}
	if ab.Pivot().Name != "a" {
		t.Fatalf("pivot = %s, want a (design order)", ab.Pivot().Name)
	}
	if ab.Signature() == "" {
		t.Fatal("empty signature")
	}
}

func TestUniqueInstancesDeterministic(t *testing.T) {
	build := func() []*UniqueInstance {
		d, m := newTestDesign(t)
		for i, x := range []int64{0, 1450, 1400, 2850, 190} {
			name := string(rune('a' + i))
			if err := d.AddInstance(&Instance{Name: name, Master: m, Pos: geom.Pt(x, 0), Orient: geom.OrientN}); err != nil {
				t.Fatal(err)
			}
		}
		return d.UniqueInstances()
	}
	u1, u2 := build(), build()
	if len(u1) != len(u2) {
		t.Fatal("nondeterministic class count")
	}
	for i := range u1 {
		if u1[i].Signature() != u2[i].Signature() {
			t.Fatalf("class %d order differs: %s vs %s", i, u1[i].Signature(), u2[i].Signature())
		}
	}
}

func TestClusters(t *testing.T) {
	d, m := newTestDesign(t)
	w := m.Size.X // 380
	add := func(name string, x, y int64, o geom.Orient) {
		t.Helper()
		if err := d.AddInstance(&Instance{Name: name, Master: m, Pos: geom.Pt(x, y), Orient: o}); err != nil {
			t.Fatal(err)
		}
	}
	// Row y=0: three abutting, then a gap, then one more.
	add("a", 0, 0, geom.OrientN)
	add("b", w, 0, geom.OrientN)
	add("c", 2*w, 0, geom.OrientN)
	add("d", 4*w, 0, geom.OrientN)
	// Row y=1400: two abutting.
	add("e", 0, 1400, geom.OrientFS)
	add("f", w, 1400, geom.OrientFS)
	// A macro must be excluded.
	blk := &Master{Name: "RAM", Class: ClassBlock, Size: geom.Pt(5000, 5000)}
	if err := d.AddMaster(blk); err != nil {
		t.Fatal(err)
	}
	add2 := &Instance{Name: "ram0", Master: blk, Pos: geom.Pt(8000, 0), Orient: geom.OrientN}
	if err := d.AddInstance(add2); err != nil {
		t.Fatal(err)
	}

	cs := d.Clusters()
	if len(cs) != 3 {
		t.Fatalf("got %d clusters, want 3", len(cs))
	}
	if len(cs[0].Insts) != 3 || cs[0].Insts[0].Name != "a" || cs[0].Insts[2].Name != "c" {
		t.Fatalf("cluster 0 = %v", names(cs[0]))
	}
	if len(cs[1].Insts) != 1 || cs[1].Insts[0].Name != "d" {
		t.Fatalf("cluster 1 = %v", names(cs[1]))
	}
	if len(cs[2].Insts) != 2 || cs[2].Insts[0].Name != "e" {
		t.Fatalf("cluster 2 = %v", names(cs[2]))
	}
}

func names(c Cluster) []string {
	out := make([]string, len(c.Insts))
	for i, inst := range c.Insts {
		out[i] = inst.Name
	}
	return out
}

func TestDesignCounts(t *testing.T) {
	d, m := newTestDesign(t)
	if err := d.AddInstance(&Instance{Name: "x", Master: m, Pos: geom.Pt(0, 0), Orient: geom.OrientN}); err != nil {
		t.Fatal(err)
	}
	blk := &Master{Name: "MACRO1", Class: ClassBlock, Size: geom.Pt(100, 100)}
	if err := d.AddMaster(blk); err != nil {
		t.Fatal(err)
	}
	if err := d.AddInstance(&Instance{Name: "y", Master: blk, Pos: geom.Pt(5000, 5000), Orient: geom.OrientN}); err != nil {
		t.Fatal(err)
	}
	if d.NumStdCells() != 1 || d.NumMacros() != 1 {
		t.Fatalf("counts: std %d macro %d", d.NumStdCells(), d.NumMacros())
	}
	inst := d.InstByName("x")
	net := &Net{Name: "n1", Terms: []Term{{Inst: inst, Pin: m.PinByName("A")}, {Inst: inst, Pin: m.PinByName("Z")}}}
	d.Nets = append(d.Nets, net)
	if d.SignalTermCount() != 2 {
		t.Fatalf("SignalTermCount = %d", d.SignalTermCount())
	}
	if net.NumTerms() != 2 {
		t.Fatalf("NumTerms = %d", net.NumTerms())
	}
}

func TestTracksFor(t *testing.T) {
	d, _ := newTestDesign(t)
	pref, nonPref := d.TracksFor(1)
	if len(pref) != 1 || pref[0].WireDir != tech.Horizontal {
		t.Fatalf("preferred tracks for M1 = %+v", pref)
	}
	if len(nonPref) != 0 {
		t.Fatalf("non-preferred tracks for M1 = %+v", nonPref)
	}
	pref2, _ := d.TracksFor(2)
	if len(pref2) != 1 || pref2[0].WireDir != tech.Vertical {
		t.Fatalf("preferred tracks for M2 = %+v", pref2)
	}
	if p, n := d.TracksFor(99); p != nil || n != nil {
		t.Fatal("TracksFor(99) must be empty")
	}
}

// TestSignatureTracksFollowAccessTracks: the signature covers exactly the
// patterns Step 1 reads for the M1 pins — M1's preferred tracks, plus M2's
// preferred ones as M1's non-preferred tracks until M1 carries its own.
func TestSignatureTracksFollowAccessTracks(t *testing.T) {
	d, m := newTestDesign(t)
	d.Tracks = append(d.Tracks,
		TrackPattern{Layer: 2, WireDir: tech.Horizontal, Start: 35, Num: 100, Step: 140},
		TrackPattern{Layer: 3, WireDir: tech.Horizontal, Start: 35, Num: 100, Step: 140},
	)
	check := func(want []bool) {
		t.Helper()
		if got := signatureTracks(d, m); !slices.Equal(got, want) {
			t.Fatalf("signature tracks %v, want %v (tracks %+v)", got, want, d.Tracks)
		}
	}
	check([]bool{true, true, false, false})
	d.Tracks = append(d.Tracks, TrackPattern{Layer: 1, WireDir: tech.Vertical, Start: 35, Num: 142, Step: 140})
	check([]bool{true, false, false, false, true})
}

func TestRowBBox(t *testing.T) {
	r := &Row{Origin: geom.Pt(100, 200), NumSites: 10, SiteW: 190, SiteH: 1400}
	want := geom.R(100, 200, 100+1900, 1600)
	if r.BBox() != want {
		t.Fatalf("Row.BBox = %v, want %v", r.BBox(), want)
	}
}

func TestValidateClean(t *testing.T) {
	d, m := newTestDesign(t)
	i0 := &Instance{Name: "v0", Master: m, Pos: geom.Pt(0, 0), Orient: geom.OrientN}
	i1 := &Instance{Name: "v1", Master: m, Pos: geom.Pt(m.Size.X, 0), Orient: geom.OrientFS}
	for _, i := range []*Instance{i0, i1} {
		if err := d.AddInstance(i); err != nil {
			t.Fatal(err)
		}
	}
	d.Nets = []*Net{{Name: "n", Terms: []Term{
		{Inst: i0, Pin: m.PinByName("Z")}, {Inst: i1, Pin: m.PinByName("A")},
	}}}
	if ps := d.Validate(0); len(ps) != 0 {
		t.Fatalf("clean design reported %v", ps)
	}
}

func TestValidateProblems(t *testing.T) {
	d, m := newTestDesign(t)
	i0 := &Instance{Name: "v0", Master: m, Pos: geom.Pt(0, 0), Orient: geom.OrientN}
	i1 := &Instance{Name: "v1", Master: m, Pos: geom.Pt(100, 0), Orient: geom.OrientN}    // overlaps i0
	i2 := &Instance{Name: "v2", Master: m, Pos: geom.Pt(5000, 137), Orient: geom.OrientN} // off row grid
	i3 := &Instance{Name: "v3", Master: m, Pos: geom.Pt(30000, 0), Orient: geom.OrientN}  // off die
	for _, i := range []*Instance{i0, i1, i2, i3} {
		if err := d.AddInstance(i); err != nil {
			t.Fatal(err)
		}
	}
	d.Nets = []*Net{
		{Name: "single", Terms: []Term{{Inst: i0, Pin: m.PinByName("A")}}},
		{Name: "dup", Terms: []Term{
			{Inst: i0, Pin: m.PinByName("Z")}, {Inst: i0, Pin: m.PinByName("Z")},
		}},
		{Name: "foreign", Terms: []Term{
			{Inst: i0, Pin: m.PinByName("A")},
			{Inst: i1, Pin: &MPin{Name: "GHOST"}},
		}},
	}
	ps := d.Validate(0)
	kinds := map[string]int{}
	for _, p := range ps {
		kinds[p.Kind]++
	}
	for _, want := range []string{"OverlappingInstances", "OffRowGrid", "OffDie", "EmptyNet", "DuplicateTerm", "DanglingTerm"} {
		if kinds[want] == 0 {
			t.Errorf("missing problem kind %s in %v", want, kinds)
		}
	}
	// The limit caps output.
	if got := d.Validate(2); len(got) != 2 {
		t.Errorf("limit ignored: %d problems", len(got))
	}
}
