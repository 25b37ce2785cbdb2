// Package suite generates the synthetic benchmark testcases that stand in
// for the official ISPD-2018 initial detailed routing contest suite. Each
// testcase mirrors the corresponding Table I row: standard cell count, macro
// count, net count, IO pin count, layer count, die size and technology node.
//
// Unique-instance diversity (the quantity Experiment 1 sweeps) is controlled
// per testcase by two knobs:
//
//   - RowJitters: per-row x offsets of the placement rows relative to the
//     vertical routing tracks. A row placed off the track grid gives every
//     cell in it a different track-offset signature — exactly the Fig. 1
//     situation. One jitter (test1-3, test7-10) keeps the class count near
//     #masters x #orientations; many jitters (test4-6) multiply it into the
//     thousands, as in the paper.
//   - Variants: the stdcell library's geometric variant count, standing in
//     for library richness.
package suite

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/stdcell"
	"repro/internal/tech"
)

// Spec describes one testcase.
type Spec struct {
	Name     string
	Node     int // nm
	StdCells int
	Macros   int
	Nets     int
	IOPins   int
	DieW     int64 // DBU
	DieH     int64
	// Variants is the stdcell library variant count.
	Variants int
	// RowJitters are the x offsets cycled across placement rows.
	RowJitters []int64
	// MisalignY builds the library with off-track pins (14 nm study).
	MisalignY bool
	// MultiHeightEvery mixes one double-height cell into the placement every
	// N standard cells (0 disables) — the paper's future-work item (i)
	// exercised at design scale.
	MultiHeightEvery int
	Seed             int64
}

// Testcases mirrors Table I of the paper (die sizes in mm^2 converted to DBU;
// 1 DBU = 1 nm). Net counts track the paper; the netlist generator connects
// approximately two instance pins per cell to match Table III's pin totals.
var Testcases = []Spec{
	{Name: "pao_test1", Node: 45, StdCells: 8879, Macros: 0, Nets: 3153, IOPins: 0, DieW: 200000, DieH: 190000, Variants: 7, RowJitters: []int64{0}, Seed: 1},
	{Name: "pao_test2", Node: 45, StdCells: 35913, Macros: 0, Nets: 36834, IOPins: 1211, DieW: 650000, DieH: 570000, Variants: 8, RowJitters: []int64{0}, Seed: 2},
	{Name: "pao_test3", Node: 45, StdCells: 35973, Macros: 4, Nets: 36700, IOPins: 1211, DieW: 990000, DieH: 700000, Variants: 8, RowJitters: []int64{0}, Seed: 3},
	{Name: "pao_test4", Node: 32, StdCells: 72094, Macros: 0, Nets: 72401, IOPins: 1211, DieW: 890000, DieH: 610000, Variants: 8, RowJitters: []int64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90}, Seed: 4},
	{Name: "pao_test5", Node: 32, StdCells: 71954, Macros: 0, Nets: 72394, IOPins: 1211, DieW: 930000, DieH: 920000, Variants: 8, RowJitters: []int64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90}, Seed: 5},
	{Name: "pao_test6", Node: 32, StdCells: 107919, Macros: 0, Nets: 107701, IOPins: 1211, DieW: 860000, DieH: 530000, Variants: 8, RowJitters: []int64{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90}, Seed: 6},
	{Name: "pao_test7", Node: 32, StdCells: 179865, Macros: 16, Nets: 179863, IOPins: 1211, DieW: 1360000, DieH: 1330000, Variants: 2, RowJitters: []int64{0}, Seed: 7},
	{Name: "pao_test8", Node: 32, StdCells: 191987, Macros: 16, Nets: 179863, IOPins: 1211, DieW: 1360000, DieH: 1330000, Variants: 8, RowJitters: []int64{0}, Seed: 8},
	{Name: "pao_test9", Node: 32, StdCells: 192911, Macros: 0, Nets: 178857, IOPins: 1211, DieW: 910000, DieH: 780000, Variants: 8, RowJitters: []int64{0}, Seed: 9},
	{Name: "pao_test10", Node: 32, StdCells: 290386, Macros: 0, Nets: 182000, IOPins: 1211, DieW: 910000, DieH: 870000, Variants: 8, RowJitters: []int64{0}, Seed: 10},
}

// MultiHeight is a dedicated testcase mixing double-height cells into a
// pao_test1-class design (not part of the Table I mirror; the paper lists
// multi-height support as future work).
var MultiHeight = Spec{
	Name: "pao_mh", Node: 45, StdCells: 8000, Macros: 0, Nets: 7000, IOPins: 0,
	DieW: 200000, DieH: 190000, Variants: 5, RowJitters: []int64{0},
	MultiHeightEvery: 9, Seed: 21,
}

// AES14 is the Fig. 9 study: a 14 nm AES-like design (the paper reports 20K
// instances, 779 unique instances and 57K instance pins, all cleanly
// accessed in 9 seconds).
var AES14 = Spec{
	Name: "aes_14nm", Node: 14, StdCells: 20000, Macros: 0, Nets: 28500, IOPins: 390,
	DieW: 260000, DieH: 250000, Variants: 8,
	RowJitters: []int64{0, 8, 16, 24, 32, 40, 48, 56}, MisalignY: true, Seed: 14,
}

// ByName returns the named testcase spec.
func ByName(name string) (Spec, error) {
	if name == AES14.Name {
		return AES14, nil
	}
	if name == MultiHeight.Name {
		return MultiHeight, nil
	}
	for _, s := range Testcases {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("suite: unknown testcase %q", name)
}

// Scale returns a proportionally shrunken copy of the spec (cells, nets, IO
// and die area all scaled), for unit tests and laptop-scale routing runs.
func (s Spec) Scale(f float64) Spec {
	if f >= 1 {
		return s
	}
	out := s
	out.Name = fmt.Sprintf("%s_s%04d", s.Name, int(f*10000))
	out.StdCells = maxInt(20, int(float64(s.StdCells)*f))
	out.Nets = maxInt(10, int(float64(s.Nets)*f))
	out.IOPins = int(float64(s.IOPins) * f)
	out.Macros = 0
	side := math.Sqrt(f)
	out.DieW = maxI64(20000, int64(float64(s.DieW)*side))
	out.DieH = maxI64(20000, int64(float64(s.DieH)*side))
	return out
}

// WithSeed returns a copy of the spec with the RNG seed replaced. Tests that
// need byte-for-byte reproducible designs (the difftest harness in
// particular) plumb their own seed through this, so a failure report's
// (testcase, seed) pair regenerates the exact design.
func (s Spec) WithSeed(seed int64) Spec {
	s.Seed = seed
	return s
}

// Generate builds the placed design for a spec. Generation is fully
// deterministic in the spec's seed.
func Generate(spec Spec) (*db.Design, error) {
	t, err := tech.ByNode(spec.Node)
	if err != nil {
		return nil, err
	}
	lib, err := stdcell.Generate(t, stdcell.Options{Variants: spec.Variants, MisalignY: spec.MisalignY})
	if err != nil {
		return nil, err
	}
	if len(lib.Core) == 0 {
		return nil, fmt.Errorf("suite: empty library for node %d", spec.Node)
	}
	var mh *db.Master
	if spec.MultiHeightEvery > 0 {
		mh, err = stdcell.MultiHeight(t, "DFF2HX1", 8)
		if err != nil {
			return nil, err
		}
		lib.Masters = append(lib.Masters, mh)
	}
	d := db.NewDesign(spec.Name, t)
	d.Die = geom.R(0, 0, spec.DieW, spec.DieH)
	for _, m := range lib.Masters {
		if err := d.AddMaster(m); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	addTracks(d, t)
	blocked, err := placeMacros(d, t, spec, rng)
	if err != nil {
		return nil, err
	}
	if err := placeStdCells(d, t, lib, spec, rng, blocked); err != nil {
		return nil, err
	}
	placeIOPins(d, t, spec)
	buildNets(d, spec, rng)
	return d, nil
}

// addTracks emits one preferred-direction track pattern per routing layer,
// phase-aligned with the in-cell track grid (rows sit at multiples of the
// cell height, which is ten M1 pitches).
func addTracks(d *db.Design, t *tech.Technology) {
	for _, l := range t.Metals {
		var start, extent int64
		if l.Dir == tech.Horizontal {
			start, extent = l.Pitch/2, d.Die.YH
		} else {
			start, extent = l.Pitch/2, d.Die.XH
		}
		num := int((extent - start) / l.Pitch)
		d.Tracks = append(d.Tracks, db.TrackPattern{
			Layer: l.Num, WireDir: l.Dir, Start: start, Num: num, Step: l.Pitch,
		})
	}
}

// placeMacros drops the spec's macros in the top-right region and returns
// their haloed bounding boxes.
func placeMacros(d *db.Design, t *tech.Technology, spec Spec, rng *rand.Rand) ([]geom.Rect, error) {
	if spec.Macros == 0 {
		return nil, nil
	}
	macro := stdcell.Macro(t, "RAMB1", 120, 8, 24)
	if err := d.AddMaster(macro); err != nil {
		return nil, err
	}
	var blocked []geom.Rect
	w, h := macro.Size.X, macro.Size.Y
	halo := 2 * t.Metal(1).Pitch
	perRow := maxInt(1, int((spec.DieW/(w+4*halo))/2))
	for i := 0; i < spec.Macros; i++ {
		col, row := i%perRow, i/perRow
		x := spec.DieW - int64(col+1)*(w+4*halo)
		y := spec.DieH - int64(row+1)*(h+4*halo)
		y -= y % t.SiteHeight // keep macros row-aligned
		if x < 0 || y < 0 {
			break
		}
		inst := &db.Instance{Name: fmt.Sprintf("m%d", i), Master: macro, Pos: geom.Pt(x, y), Orient: geom.OrientN}
		if err := d.AddInstance(inst); err != nil {
			return nil, err
		}
		blocked = append(blocked, inst.BBox().Bloat(halo))
	}
	_ = rng
	return blocked, nil
}

// placeStdCells fills rows with library cells until the target count.
func placeStdCells(d *db.Design, t *tech.Technology, lib *stdcell.Library, spec Spec, rng *rand.Rand, blocked []geom.Rect) error {
	mh := d.MasterByName("DFF2HX1")
	numRows := int(spec.DieH / t.SiteHeight)
	// Keep a one-row core margin at the bottom and top of the die: the IO
	// pads live in those bands and must not interact with cell pin access.
	rowLo, rowHi := 1, numRows-1
	if rowHi <= rowLo {
		return fmt.Errorf("suite: die too short for core rows")
	}
	placed := 0
	// Target an even distribution with random gaps; loop rows until done.
	for pass := 0; placed < spec.StdCells; pass++ {
		anyRoom := false
		for r := rowLo; r < rowHi && placed < spec.StdCells; r++ {
			jitter := spec.RowJitters[r%len(spec.RowJitters)]
			y := int64(r) * t.SiteHeight
			orient := geom.OrientN
			if r%2 == 1 {
				orient = geom.OrientFS
			}
			if pass == 0 {
				d.Rows = append(d.Rows, &db.Row{
					Name:     fmt.Sprintf("ROW_%d", r),
					Origin:   geom.Pt(jitter, y),
					NumSites: int((spec.DieW - jitter) / t.SiteWidth),
					SiteW:    t.SiteWidth, SiteH: t.SiteHeight, Orient: orient,
				})
			}
			// Each pass fills a horizontal band of the row, so repeated
			// passes interleave deterministically.
			x := jitter + int64(pass)*7*t.SiteWidth
			rowEnd := spec.DieW - 2*t.SiteWidth
			for x < rowEnd && placed < spec.StdCells {
				m := lib.Core[rng.Intn(len(lib.Core))]
				// Double-height cells drop in on even rows (never the last)
				// and reserve the row above via the blocked list.
				if mh != nil && spec.MultiHeightEvery > 0 && placed%spec.MultiHeightEvery == spec.MultiHeightEvery-1 &&
					r%2 == 0 && r+1 < rowHi {
					m = mh
				}
				bbox := geom.R(x, y, x+m.Size.X, y+m.Size.Y)
				if bbox.XH > rowEnd {
					break
				}
				if hit := overlapsAny(bbox, blocked); hit {
					x += t.SiteWidth * 8
					continue
				}
				if m.Size.Y > t.SiteHeight {
					blocked = append(blocked, bbox)
				}
				inst := &db.Instance{
					Name: fmt.Sprintf("u%d", placed), Master: m,
					Pos: geom.Pt(x, y), Orient: orient,
				}
				if err := d.AddInstance(inst); err != nil {
					return err
				}
				placed++
				anyRoom = true
				// Advance past the cell. Most neighbors abut (gap 0) so
				// Step-3 clusters form; occasional gaps break clusters and
				// leave whitespace for later passes.
				var gap int64
				switch roll := rng.Intn(20); {
				case roll < 11: // abut
				case roll < 16:
					gap = int64(rng.Intn(2)+1) * t.SiteWidth
				case roll < 19:
					gap = int64(rng.Intn(6)+3) * t.SiteWidth
				default:
					gap = 25 * t.SiteWidth
				}
				x += m.Size.X + gap
			}
		}
		if !anyRoom {
			return fmt.Errorf("suite: %s: placed only %d of %d cells (die too small)", spec.Name, placed, spec.StdCells)
		}
	}
	return nil
}

func overlapsAny(r geom.Rect, set []geom.Rect) bool {
	for _, b := range set {
		if r.Overlaps(b) {
			return true
		}
	}
	return false
}

// placeIOPins spreads the IO pins along the bottom and top die edges on M2.
func placeIOPins(d *db.Design, t *tech.Technology, spec Spec) {
	if spec.IOPins == 0 {
		return
	}
	m2 := t.Metal(2)
	w := m2.Width
	h := 4 * m2.Pitch
	for i := 0; i < spec.IOPins; i++ {
		frac := float64(i) / float64(spec.IOPins)
		x := int64(frac*float64(spec.DieW-8*m2.Pitch)) + 4*m2.Pitch
		x -= x % m2.Pitch
		x += m2.Pitch / 2 // on-track
		var r geom.Rect
		if i%2 == 0 {
			r = geom.R(x-w/2, 0, x+w/2, h)
		} else {
			r = geom.R(x-w/2, spec.DieH-h, x+w/2, spec.DieH)
		}
		dir := db.DirInput
		if i%3 == 0 {
			dir = db.DirOutput
		}
		d.IOPins = append(d.IOPins, &db.IOPin{
			Name: fmt.Sprintf("io%d", i), Dir: dir,
			Shape: db.Shape{Layer: 2, Rect: r},
		})
	}
}

// buildNets wires the design: each net has one driver (an output pin or an
// input IO pad) and one to four sinks picked from spatially nearby unused
// input pins, giving the local connectivity detailed routers expect.
func buildNets(d *db.Design, spec Spec, rng *rand.Rand) {
	type inputTerm struct {
		inst *db.Instance
		pin  *db.MPin
	}
	var drivers []db.Term
	var inputs []inputTerm
	for _, inst := range d.Instances {
		for _, p := range inst.Master.SignalPins() {
			if p.Dir == db.DirOutput {
				drivers = append(drivers, db.Term{Inst: inst, Pin: p})
			} else {
				inputs = append(inputs, inputTerm{inst, p})
			}
		}
	}
	// Bucket input pins by coarse grid cell for locality; the bucket scales
	// with the die so scaled-down testcases keep realistically local nets.
	bucket := spec.DieW / 15
	if bucket > 40000 {
		bucket = 40000 // 40 um
	}
	if bucket < 5000 {
		bucket = 5000
	}
	grid := make(map[[2]int64][]int)
	for i, in := range inputs {
		c := in.inst.BBox().Center()
		grid[[2]int64{c.X / bucket, c.Y / bucket}] = append(grid[[2]int64{c.X / bucket, c.Y / bucket}], i)
	}
	usedInput := make([]bool, len(inputs))
	takeNear := func(p geom.Point, n int) []inputTerm {
		var out []inputTerm
		cx, cy := p.X/bucket, p.Y/bucket
		for ring := int64(0); ring <= 2 && len(out) < n; ring++ {
			for dx := -ring; dx <= ring && len(out) < n; dx++ {
				for dy := -ring; dy <= ring && len(out) < n; dy++ {
					if maxI64(absI64(dx), absI64(dy)) != ring {
						continue
					}
					ids := grid[[2]int64{cx + dx, cy + dy}]
					for _, id := range ids {
						if usedInput[id] {
							continue
						}
						usedInput[id] = true
						out = append(out, inputs[id])
						if len(out) >= n {
							break
						}
					}
				}
			}
		}
		return out
	}

	// IO-driven nets first (input pads drive), then cell-output nets.
	netID := 0
	for _, io := range d.IOPins {
		if io.Dir != db.DirInput || len(d.Nets) >= spec.Nets {
			continue
		}
		sinks := takeNear(io.Shape.Rect.Center(), 1+rng.Intn(2))
		if len(sinks) == 0 {
			continue
		}
		n := &db.Net{Name: fmt.Sprintf("net%d", netID), IOPins: []*db.IOPin{io}}
		for _, s := range sinks {
			n.Terms = append(n.Terms, db.Term{Inst: s.inst, Pin: s.pin})
		}
		d.Nets = append(d.Nets, n)
		netID++
	}
	for _, drv := range drivers {
		if len(d.Nets) >= spec.Nets {
			break
		}
		sinks := takeNear(drv.Inst.BBox().Center(), 1+rng.Intn(3))
		if len(sinks) == 0 {
			continue
		}
		n := &db.Net{Name: fmt.Sprintf("net%d", netID), Terms: []db.Term{drv}}
		for _, s := range sinks {
			n.Terms = append(n.Terms, db.Term{Inst: s.inst, Pin: s.pin})
		}
		d.Nets = append(d.Nets, n)
		netID++
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
