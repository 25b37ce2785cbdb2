// Package db is the design database: cell masters with pin geometry,
// placed instances, nets, rows, routing track patterns and the die — the
// LEF/DEF world model that pin access analysis runs against.
package db

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/tech"
)

// PinDir is a LEF pin direction.
type PinDir uint8

const (
	DirInput PinDir = iota
	DirOutput
	DirInout
)

var pinDirNames = [...]string{"INPUT", "OUTPUT", "INOUT"}

func (d PinDir) String() string { return pinDirNames[d] }

// PinUse is a LEF pin use class.
type PinUse uint8

const (
	UseSignal PinUse = iota
	UsePower
	UseGround
	UseClock
)

var pinUseNames = [...]string{"SIGNAL", "POWER", "GROUND", "CLOCK"}

func (u PinUse) String() string { return pinUseNames[u] }

// Shape is a rectangle on a metal layer (identified by 1-based metal number).
type Shape struct {
	Layer int
	Rect  geom.Rect
}

// MPin is a pin on a cell master, in master-local coordinates.
type MPin struct {
	Name   string
	Dir    PinDir
	Use    PinUse
	Shapes []Shape
}

// BBox returns the bounding box of all pin shapes (zero Rect for empty pins).
func (p *MPin) BBox() geom.Rect {
	if len(p.Shapes) == 0 {
		return geom.Rect{}
	}
	out := p.Shapes[0].Rect
	for _, s := range p.Shapes[1:] {
		out = out.UnionBBox(s.Rect)
	}
	return out
}

// Layers lists the metal numbers carrying the pin's shapes, ascending. Step 1
// generates access points on these layers, lowest first, and the
// unique-instance signature covers their tracks (see signatureTracks).
func (p *MPin) Layers() []int {
	var out []int
	for _, s := range p.Shapes {
		if !slices.Contains(out, s.Layer) {
			out = append(out, s.Layer)
		}
	}
	slices.Sort(out)
	return out
}

// ShapesOnLayer returns the pin rectangles on the given metal number.
func (p *MPin) ShapesOnLayer(layer int) []geom.Rect {
	var out []geom.Rect
	for _, s := range p.Shapes {
		if s.Layer == layer {
			out = append(out, s.Rect)
		}
	}
	return out
}

// MasterClass distinguishes standard cells from macros.
type MasterClass uint8

const (
	ClassCore MasterClass = iota
	ClassBlock
)

func (c MasterClass) String() string {
	if c == ClassBlock {
		return "BLOCK"
	}
	return "CORE"
}

// Master is a cell master (LEF MACRO).
type Master struct {
	Name  string
	Class MasterClass
	Size  geom.Point // width (X) and height (Y)
	Pins  []*MPin
	Obs   []Shape // obstruction shapes, master-local
}

// PinByName returns the named pin, or nil.
func (m *Master) PinByName(name string) *MPin {
	for _, p := range m.Pins {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// SignalPins returns the pins with SIGNAL or CLOCK use, in declaration order.
func (m *Master) SignalPins() []*MPin {
	var out []*MPin
	for _, p := range m.Pins {
		if p.Use == UseSignal || p.Use == UseClock {
			out = append(out, p)
		}
	}
	return out
}

// Instance is a placed cell (DEF COMPONENT).
type Instance struct {
	Name   string
	Master *Master
	Pos    geom.Point // placed lower-left corner
	Orient geom.Orient
	ID     int // dense index assigned by the design
}

// Transform returns the master-local to design-coordinate transform.
func (i *Instance) Transform() geom.Transform {
	return geom.Transform{Offset: i.Pos, Orient: i.Orient, Size: i.Master.Size}
}

// BBox returns the placed bounding box.
func (i *Instance) BBox() geom.Rect { return i.Transform().BBox() }

// PinShapes returns the design-coordinate rectangles of the given master pin.
func (i *Instance) PinShapes(p *MPin) []Shape {
	return i.AppendPinShapes(make([]Shape, 0, len(p.Shapes)), p)
}

// AppendPinShapes appends the design-coordinate rectangles of the given
// master pin to dst.
func (i *Instance) AppendPinShapes(dst []Shape, p *MPin) []Shape {
	return appendPlaced(dst, i.Transform(), p.Shapes)
}

// ObsShapes returns the design-coordinate obstruction rectangles.
func (i *Instance) ObsShapes() []Shape {
	return i.AppendObsShapes(make([]Shape, 0, len(i.Master.Obs)))
}

// AppendObsShapes appends the design-coordinate obstruction rectangles to dst.
func (i *Instance) AppendObsShapes(dst []Shape) []Shape {
	return appendPlaced(dst, i.Transform(), i.Master.Obs)
}

// appendPlaced appends the master-local shapes, placed by tr, to dst.
func appendPlaced(dst []Shape, tr geom.Transform, shapes []Shape) []Shape {
	for _, s := range shapes {
		dst = append(dst, Shape{Layer: s.Layer, Rect: tr.ApplyRect(s.Rect)})
	}
	return dst
}

// Term is a net terminal: an (instance, pin) pair.
type Term struct {
	Inst *Instance
	Pin  *MPin
}

// IOPin is a design-level pin (DEF PINS entry) with a fixed shape.
type IOPin struct {
	Name  string
	Dir   PinDir
	Shape Shape // design coordinates
}

// Net connects instance terminals and IO pins.
type Net struct {
	Name   string
	Terms  []Term
	IOPins []*IOPin
}

// NumTerms returns the total terminal count including IO pins.
func (n *Net) NumTerms() int { return len(n.Terms) + len(n.IOPins) }

// TrackPattern is a DEF TRACKS statement: Num tracks for wires on metal Layer,
// at coordinates Start, Start+Step, ... The pattern is a set of X coordinates
// when WireDir is vertical, and Y coordinates when horizontal.
type TrackPattern struct {
	Layer   int // metal number the tracks route
	WireDir tech.Dir
	Start   int64
	Num     int
	Step    int64
}

// Last returns the coordinate of the final track.
func (tp TrackPattern) Last() int64 { return tp.Start + int64(tp.Num-1)*tp.Step }

// IsOnTrack reports whether coord coincides with one of the pattern's tracks.
func (tp TrackPattern) IsOnTrack(coord int64) bool {
	if tp.Num <= 0 || coord < tp.Start || coord > tp.Last() {
		return false
	}
	return (coord-tp.Start)%tp.Step == 0
}

// CoordsIn returns the track coordinates within [lo, hi].
func (tp TrackPattern) CoordsIn(lo, hi int64) []int64 {
	if tp.Num <= 0 || tp.Step <= 0 {
		return nil
	}
	var out []int64
	first := tp.Start
	if lo > first {
		k := (lo - tp.Start + tp.Step - 1) / tp.Step
		first = tp.Start + k*tp.Step
	}
	for c := first; c <= hi && c <= tp.Last(); c += tp.Step {
		out = append(out, c)
	}
	return out
}

// Offset returns the phase of coord relative to the pattern, in [0, Step).
// Instances whose placements differ in phase see different on-track/off-track
// conditions — this is the third component of the unique-instance signature.
func (tp TrackPattern) Offset(coord int64) int64 {
	if tp.Step <= 0 {
		return 0
	}
	off := (coord - tp.Start) % tp.Step
	if off < 0 {
		off += tp.Step
	}
	return off
}

// Row is a placement row of sites (DEF ROW).
type Row struct {
	Name     string
	Origin   geom.Point
	NumSites int
	SiteW    int64
	SiteH    int64
	Orient   geom.Orient // N or FS
}

// BBox returns the row extent.
func (r *Row) BBox() geom.Rect {
	return geom.R(r.Origin.X, r.Origin.Y, r.Origin.X+int64(r.NumSites)*r.SiteW, r.Origin.Y+r.SiteH)
}

// Design is a placed design plus its technology.
type Design struct {
	Name      string
	Tech      *tech.Technology
	Die       geom.Rect
	Tracks    []TrackPattern
	Rows      []*Row
	Masters   []*Master
	Instances []*Instance
	Nets      []*Net
	IOPins    []*IOPin

	masterByName map[string]*Master
	instByName   map[string]*Instance
	// nextID is the next instance ID to hand out. IDs are never reused, so
	// a delete followed by an insert cannot alias result maps keyed by ID
	// (incremental ECO flows depend on this).
	nextID int
}

// NewDesign creates an empty design on the given technology.
func NewDesign(name string, t *tech.Technology) *Design {
	return &Design{
		Name:         name,
		Tech:         t,
		masterByName: make(map[string]*Master),
		instByName:   make(map[string]*Instance),
	}
}

// AddMaster registers a master; duplicate names are an error.
func (d *Design) AddMaster(m *Master) error {
	if _, dup := d.masterByName[m.Name]; dup {
		return fmt.Errorf("db: duplicate master %q", m.Name)
	}
	d.Masters = append(d.Masters, m)
	d.masterByName[m.Name] = m
	return nil
}

// MasterByName returns the named master, or nil.
func (d *Design) MasterByName(name string) *Master { return d.masterByName[name] }

// AddInstance places an instance; duplicate names are an error. The assigned
// ID is monotonically increasing and never reused, so ascending ID order is
// design (insertion) order even after removals.
func (d *Design) AddInstance(inst *Instance) error {
	if _, dup := d.instByName[inst.Name]; dup {
		return fmt.Errorf("db: duplicate instance %q", inst.Name)
	}
	if d.nextID < len(d.Instances) {
		// Designs built before removals existed (or literals that filled
		// Instances directly) start with nextID zero; catch up so fresh IDs
		// stay unique.
		d.nextID = len(d.Instances)
	}
	inst.ID = d.nextID
	d.nextID++
	d.Instances = append(d.Instances, inst)
	d.instByName[inst.Name] = inst
	return nil
}

// RemoveInstance deletes a placed instance and every net terminal attached to
// it, preserving the order of the remaining instances. It reports whether the
// instance existed. Nets keep their identity (an emptied net stays in Nets so
// net indexes remain stable for incremental flows).
func (d *Design) RemoveInstance(name string) bool {
	inst := d.instByName[name]
	if inst == nil {
		return false
	}
	delete(d.instByName, name)
	for i, it := range d.Instances {
		if it == inst {
			d.Instances = append(d.Instances[:i], d.Instances[i+1:]...)
			break
		}
	}
	for _, net := range d.Nets {
		kept := net.Terms[:0]
		for _, t := range net.Terms {
			if t.Inst != inst {
				kept = append(kept, t)
			}
		}
		net.Terms = kept
	}
	return true
}

// InstByName returns the named instance, or nil.
func (d *Design) InstByName(name string) *Instance { return d.instByName[name] }

// NumStdCells returns the number of CORE-class instances.
func (d *Design) NumStdCells() int {
	n := 0
	for _, i := range d.Instances {
		if i.Master.Class == ClassCore {
			n++
		}
	}
	return n
}

// NumMacros returns the number of BLOCK-class instances.
func (d *Design) NumMacros() int {
	n := 0
	for _, i := range d.Instances {
		if i.Master.Class == ClassBlock {
			n++
		}
	}
	return n
}

// TracksFor returns the track patterns carrying wires for the given metal
// number, split by wire direction.
func (d *Design) TracksFor(layer int) (preferred, nonPreferred []TrackPattern) {
	l := d.Tech.Metal(layer)
	if l == nil {
		return nil, nil
	}
	for _, tp := range d.Tracks {
		if tp.Layer != layer {
			continue
		}
		if tp.WireDir == l.Dir {
			preferred = append(preferred, tp)
		} else {
			nonPreferred = append(nonPreferred, tp)
		}
	}
	return preferred, nonPreferred
}

// AccessTracks returns the tracks pin access reads on the given metal
// number: its preferred-direction patterns, and the coordinates used for its
// non-preferred direction. Per Section II-C, the upper layer's preferred
// tracks serve as the non-preferred ones so that on-track up-via access
// aligns to both layers; a design-provided non-preferred pattern on the
// layer itself takes precedence. Step 1, the TrRte baseline and the
// unique-instance signature (signatureTracks) all read tracks through it.
func (d *Design) AccessTracks(layer int) (preferred, nonPreferred []TrackPattern) {
	preferred, nonPreferred = d.TracksFor(layer)
	if len(nonPreferred) == 0 {
		nonPreferred, _ = d.TracksFor(layer + 1)
	}
	return preferred, nonPreferred
}

// SignalTermCount returns the total number of instance pins attached to nets
// — the "Total #Pins" column of Table III.
func (d *Design) SignalTermCount() int {
	n := 0
	for _, net := range d.Nets {
		n += len(net.Terms)
	}
	return n
}

// Cluster is a maximal run of abutting instances in one row (no empty site
// between neighbors), the unit of Step-3 access pattern selection.
type Cluster struct {
	Insts []*Instance // sorted by x
}

// RowKey identifies a clustering row: the y coordinate and orientation that
// its CORE instances share.
type RowKey struct {
	Y      int64
	Orient geom.Orient
}

// RowOf returns the clustering row of an instance; ok is false for a
// non-CORE instance, which belongs to no cluster.
func RowOf(inst *Instance) (k RowKey, ok bool) {
	return RowKey{inst.Pos.Y, inst.Orient}, inst.Master.Class == ClassCore
}

// Less orders rows by y, then orientation: the order Clusters emits them in.
func (k RowKey) Less(o RowKey) bool {
	if k.Y != o.Y {
		return k.Y < o.Y
	}
	return k.Orient < o.Orient
}

// Clusters groups CORE instances into row clusters. Instances are bucketed by
// their row (RowOf) in design order, and the rows, taken in RowKey order, are
// split by AppendRowClusters.
func (d *Design) Clusters() []Cluster {
	buckets := make(map[RowKey][]*Instance)
	var keys []RowKey
	for _, inst := range d.Instances {
		k, ok := RowOf(inst)
		if !ok {
			continue
		}
		if _, seen := buckets[k]; !seen {
			keys = append(keys, k)
		}
		buckets[k] = append(buckets[k], inst)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	var out []Cluster
	for _, k := range keys {
		out = AppendRowClusters(out, buckets[k])
	}
	return out
}

// AppendRowClusters sorts one row's instances by x in place and appends the
// clusters they form to out, splitting wherever a gap (empty site space)
// appears between neighbors. Each cluster's Insts is a capped sub-slice of
// insts. sort.Slice is deterministic but not stable, so the members of a row
// passed in design order tie-break exactly as in Clusters; incremental flows
// re-split a single row this way.
func AppendRowClusters(out []Cluster, insts []*Instance) []Cluster {
	sort.Slice(insts, func(a, b int) bool { return insts[a].Pos.X < insts[b].Pos.X })
	start := 0
	var prevEnd int64
	for i, inst := range insts {
		if i > start && inst.Pos.X > prevEnd {
			out = append(out, Cluster{Insts: insts[start:i:i]})
			start = i
		}
		prevEnd = inst.BBox().XH
	}
	if start < len(insts) {
		out = append(out, Cluster{Insts: insts[start:len(insts):len(insts)]})
	}
	return out
}
