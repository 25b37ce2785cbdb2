// Package def reads and writes the DEF subset the pin access flow needs:
// die area, rows, track patterns (the third component of unique-instance
// signatures), placed components, design pins and nets. As with package lef,
// the dialect follows DEF 5.8 closely while staying dependency-free.
package def

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
)

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// Write emits the design as DEF. Coordinates are written in DBU directly
// (DEF distance units).
func Write(w io.Writer, d *db.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n")
	fmt.Fprintf(bw, "DESIGN %s ;\n", d.Name)
	fmt.Fprintf(bw, "UNITS DISTANCE MICRONS %d ;\n", d.Tech.DBUPerMicron)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", d.Die.XL, d.Die.YL, d.Die.XH, d.Die.YH)

	for _, r := range d.Rows {
		fmt.Fprintf(bw, "ROW %s core %d %d %s DO %d BY 1 STEP %d 0 ;\n",
			r.Name, r.Origin.X, r.Origin.Y, r.Orient, r.NumSites, r.SiteW)
	}
	for _, tp := range d.Tracks {
		axis := "Y"
		if tp.WireDir == tech.Vertical {
			axis = "X"
		}
		fmt.Fprintf(bw, "TRACKS %s %d DO %d STEP %d LAYER %s ;\n",
			axis, tp.Start, tp.Num, tp.Step, d.Tech.Metal(tp.Layer).Name)
	}

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Instances))
	for _, inst := range d.Instances {
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) %s ;\n",
			inst.Name, inst.Master.Name, inst.Pos.X, inst.Pos.Y, inst.Orient)
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")

	if len(d.IOPins) > 0 {
		fmt.Fprintf(bw, "PINS %d ;\n", len(d.IOPins))
		for _, io := range d.IOPins {
			r := io.Shape.Rect
			c := r.Center()
			fmt.Fprintf(bw, "- %s + NET %s + DIRECTION %s + LAYER %s ( %d %d ) ( %d %d ) + PLACED ( %d %d ) N ;\n",
				io.Name, netOfIO(d, io), io.Dir, d.Tech.Metal(io.Shape.Layer).Name,
				r.XL-c.X, r.YL-c.Y, r.XH-c.X, r.YH-c.Y, c.X, c.Y)
		}
		fmt.Fprintf(bw, "END PINS\n")
	}

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		for _, io := range n.IOPins {
			fmt.Fprintf(bw, " ( PIN %s )", io.Name)
		}
		for _, t := range n.Terms {
			fmt.Fprintf(bw, " ( %s %s )", t.Inst.Name, t.Pin.Name)
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

func netOfIO(d *db.Design, io *db.IOPin) string {
	for _, n := range d.Nets {
		for _, p := range n.IOPins {
			if p == io {
				return n.Name
			}
		}
	}
	return io.Name
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// Input hardening bounds (see the matching limits in package lef): DEF is a
// machine-written format, so anything past these is a corrupt or adversarial
// file and is rejected before it can balloon memory or overflow coordinate
// arithmetic.
const (
	// maxTokenLen bounds one identifier/number token.
	maxTokenLen = 4096
	// maxCoordDBU bounds any integer coordinate (DBU) — far past any
	// physical die, with enough int64 headroom that sums and areas of a few
	// such coordinates cannot overflow.
	maxCoordDBU = int64(1e15)
	// maxSectionCount bounds the declared COMPONENTS/PINS/NETS entry counts.
	maxSectionCount = int64(50_000_000)
)

// parser streams tokens off the input a line at a time: white-space
// separated fields with "#" comments stripped. Each token is a substring of
// its own line, so a retained name cannot pin the whole input.
type parser struct {
	sc     *bufio.Scanner
	fields []string // unread tokens of the current line
	tok    string   // lookahead token, when has
	has    bool
	pos    int   // tokens consumed, for error positions
	err    error // first tokenizer error; it ends the stream
}

func newParser(r io.Reader) *parser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return &parser{sc: sc}
}

// fill loads the lookahead token, reading lines as needed. It reports false
// at the end of the input or after a tokenizer error.
func (p *parser) fill() bool {
	for !p.has {
		if p.err != nil {
			return false
		}
		if len(p.fields) > 0 {
			p.tok, p.fields, p.has = p.fields[0], p.fields[1:], true
			if len(p.tok) > maxTokenLen {
				p.err = fmt.Errorf("def: token of %d bytes exceeds the %d-byte limit", len(p.tok), maxTokenLen)
				return false
			}
			break
		}
		if !p.sc.Scan() {
			p.err = p.sc.Err()
			return false
		}
		line := p.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		p.fields = strings.Fields(line)
	}
	return true
}

// finish drains the rest of the input and returns the first tokenizer error,
// which takes precedence over the parse outcome wherever it occurs.
func (p *parser) finish() error {
	for p.fill() {
		p.has = false
	}
	return p.err
}

func (p *parser) eof() bool { return !p.fill() }
func (p *parser) peek() string {
	if !p.fill() {
		return ""
	}
	return p.tok
}
func (p *parser) next() string {
	if !p.fill() {
		return ""
	}
	p.has = false
	p.pos++
	return p.tok
}
func (p *parser) skipStatement() {
	for !p.eof() {
		if p.next() == ";" {
			return
		}
	}
}
func (p *parser) expect(want string) error {
	if got := p.next(); got != want {
		return fmt.Errorf("def: expected %q, got %q (token %d)", want, got, p.pos)
	}
	return nil
}
func (p *parser) int64() (int64, error) {
	t := p.next()
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("def: bad integer %q (token %d)", t, p.pos)
	}
	if v > maxCoordDBU || v < -maxCoordDBU {
		return 0, fmt.Errorf("def: integer %q exceeds the %d DBU magnitude limit (token %d)", t, maxCoordDBU, p.pos)
	}
	return v, nil
}

// sectionCount parses and validates the "<n> ;" header of a COMPONENTS /
// PINS / NETS section. The declared count is an upper bound checked against
// the entries actually parsed, so a lying header cannot smuggle in an
// unbounded section.
func (p *parser) sectionCount(section string) (int64, error) {
	n, err := p.int64()
	if err != nil {
		return 0, fmt.Errorf("def: %s count: %w", section, err)
	}
	if n < 0 || n > maxSectionCount {
		return 0, fmt.Errorf("def: %s declares %d entries (allowed 0..%d)", section, n, maxSectionCount)
	}
	p.skipStatement()
	return n, nil
}

// Parse reads a DEF design against a technology and master library (as
// produced by lef.Parse). A design holding a shape too large for the DRC
// index is refused (see checkExtents).
func Parse(r io.Reader, t *tech.Technology, masters []*db.Master) (*db.Design, error) {
	p := newParser(r)
	d, err := parse(p, t, masters)
	if terr := p.finish(); terr != nil {
		return nil, terr
	}
	if err != nil {
		return d, err
	}
	if err := checkExtents(d); err != nil {
		return nil, err
	}
	return d, nil
}

// checkExtents refuses a design whose IO pins, or the pin and obstruction
// shapes of any master in its library, include one the DRC index would not
// take (drc.CheckExtent: wherever it is placed, it could be filed in more
// bins than one shape may cost). Every tool then reports such a design as
// an input error instead of failing inside the engine. Unplaced masters are
// checked too, since an ECO insert may place any of them.
func checkExtents(d *db.Design) error {
	for _, m := range d.Masters {
		for _, pin := range m.Pins {
			for _, s := range pin.Shapes {
				if err := drc.CheckExtent(d.Tech, s.Rect); err != nil {
					return fmt.Errorf("def: master %s pin %s: %w", m.Name, pin.Name, err)
				}
			}
		}
		for _, s := range m.Obs {
			if err := drc.CheckExtent(d.Tech, s.Rect); err != nil {
				return fmt.Errorf("def: master %s obstruction: %w", m.Name, err)
			}
		}
	}
	for _, io := range d.IOPins {
		if err := drc.CheckExtent(d.Tech, io.Shape.Rect); err != nil {
			return fmt.Errorf("def: pin %s: %w", io.Name, err)
		}
	}
	return nil
}

func parse(p *parser, t *tech.Technology, masters []*db.Master) (*db.Design, error) {
	d := db.NewDesign("", t)
	for _, m := range masters {
		if err := d.AddMaster(m); err != nil {
			return nil, err
		}
	}
	for !p.eof() {
		switch tok := p.next(); tok {
		case "VERSION", "DIVIDERCHAR", "BUSBITCHARS", "UNITS":
			p.skipStatement()
		case "DESIGN":
			d.Name = p.next()
			p.skipStatement()
		case "DIEAREA":
			vals, err := parseCoordPairs(p, 2)
			if err != nil {
				return nil, err
			}
			d.Die = geom.R(vals[0].X, vals[0].Y, vals[1].X, vals[1].Y)
		case "ROW":
			if err := parseRow(p, d); err != nil {
				return nil, err
			}
		case "TRACKS":
			if err := parseTracks(p, d); err != nil {
				return nil, err
			}
		case "COMPONENTS":
			if err := parseComponents(p, d); err != nil {
				return nil, err
			}
		case "PINS":
			if err := parsePins(p, d); err != nil {
				return nil, err
			}
		case "NETS":
			if err := parseNets(p, d); err != nil {
				return nil, err
			}
		case "END":
			if p.peek() == "DESIGN" {
				p.next()
				return d, nil
			}
		default:
			p.skipStatement()
		}
	}
	return d, nil
}

// parseCoordPairs reads n "( x y )" groups.
func parseCoordPairs(p *parser, n int) ([]geom.Point, error) {
	out := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		x, err := p.int64()
		if err != nil {
			return nil, err
		}
		y, err := p.int64()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		out = append(out, geom.Pt(x, y))
	}
	p.skipStatement()
	return out, nil
}

func parseRow(p *parser, d *db.Design) error {
	r := &db.Row{Name: p.next(), SiteW: d.Tech.SiteWidth, SiteH: d.Tech.SiteHeight}
	p.next() // site name
	x, err := p.int64()
	if err != nil {
		return err
	}
	y, err := p.int64()
	if err != nil {
		return err
	}
	r.Origin = geom.Pt(x, y)
	o, err := geom.ParseOrient(p.next())
	if err != nil {
		return err
	}
	r.Orient = o
	if err := p.expect("DO"); err != nil {
		return err
	}
	n, err := p.int64()
	if err != nil {
		return err
	}
	r.NumSites = int(n)
	if err := p.expect("BY"); err != nil {
		return err
	}
	if _, err := p.int64(); err != nil { // BY count (1)
		return err
	}
	if err := p.expect("STEP"); err != nil {
		return err
	}
	step, err := p.int64()
	if err != nil {
		return err
	}
	if step > 0 {
		r.SiteW = step
	}
	p.skipStatement()
	d.Rows = append(d.Rows, r)
	return nil
}

func parseTracks(p *parser, d *db.Design) error {
	axis := p.next()
	start, err := p.int64()
	if err != nil {
		return err
	}
	if err := p.expect("DO"); err != nil {
		return err
	}
	num, err := p.int64()
	if err != nil {
		return err
	}
	if err := p.expect("STEP"); err != nil {
		return err
	}
	step, err := p.int64()
	if err != nil {
		return err
	}
	if err := p.expect("LAYER"); err != nil {
		return err
	}
	layerName := p.next()
	p.skipStatement()
	l := d.Tech.MetalByName(layerName)
	if l == nil {
		return fmt.Errorf("def: TRACKS references unknown layer %q", layerName)
	}
	dir := tech.Horizontal // TRACKS Y: y coordinates => horizontal wires
	if axis == "X" {
		dir = tech.Vertical
	}
	d.Tracks = append(d.Tracks, db.TrackPattern{Layer: l.Num, WireDir: dir, Start: start, Num: int(num), Step: step})
	return nil
}

func parseComponents(p *parser, d *db.Design) error {
	declared, err := p.sectionCount("COMPONENTS")
	if err != nil {
		return err
	}
	var seen int64
	for !p.eof() {
		tok := p.next()
		if tok == "END" {
			return p.expect("COMPONENTS")
		}
		if tok != "-" {
			return fmt.Errorf("def: expected component entry, got %q", tok)
		}
		if seen++; seen > declared {
			return fmt.Errorf("def: COMPONENTS declares %d entries but has more", declared)
		}
		name := p.next()
		masterName := p.next()
		m := d.MasterByName(masterName)
		if m == nil {
			return fmt.Errorf("def: component %q references unknown master %q", name, masterName)
		}
		inst := &db.Instance{Name: name, Master: m}
		for !p.eof() {
			t := p.next()
			if t == ";" {
				break
			}
			if t == "+" && (p.peek() == "PLACED" || p.peek() == "FIXED") {
				p.next()
				if err := p.expect("("); err != nil {
					return err
				}
				x, err := p.int64()
				if err != nil {
					return err
				}
				y, err := p.int64()
				if err != nil {
					return err
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				inst.Pos = geom.Pt(x, y)
				o, err := geom.ParseOrient(p.next())
				if err != nil {
					return err
				}
				inst.Orient = o
			}
		}
		if err := d.AddInstance(inst); err != nil {
			return err
		}
	}
	return fmt.Errorf("def: unterminated COMPONENTS")
}

func parsePins(p *parser, d *db.Design) error {
	declared, err := p.sectionCount("PINS")
	if err != nil {
		return err
	}
	var seen int64
	type pending struct {
		io  *db.IOPin
		net string
	}
	var pend []pending
	for !p.eof() {
		tok := p.next()
		if tok == "END" {
			if err := p.expect("PINS"); err != nil {
				return err
			}
			for _, pe := range pend {
				d.IOPins = append(d.IOPins, pe.io)
			}
			return nil
		}
		if tok != "-" {
			return fmt.Errorf("def: expected pin entry, got %q", tok)
		}
		if seen++; seen > declared {
			return fmt.Errorf("def: PINS declares %d entries but has more", declared)
		}
		io := &db.IOPin{Name: p.next()}
		netName := ""
		var rel geom.Rect
		var place geom.Point
		for !p.eof() {
			t := p.next()
			if t == ";" {
				break
			}
			if t != "+" {
				continue
			}
			switch p.next() {
			case "NET":
				netName = p.next()
			case "DIRECTION":
				switch p.next() {
				case "OUTPUT":
					io.Dir = db.DirOutput
				case "INOUT":
					io.Dir = db.DirInout
				}
			case "LAYER":
				l := d.Tech.MetalByName(p.next())
				if l == nil {
					return fmt.Errorf("def: pin %q on unknown layer", io.Name)
				}
				io.Shape.Layer = l.Num
				var vals [4]int64
				if err := p.expect("("); err != nil {
					return err
				}
				for i := 0; i < 2; i++ {
					v, err := p.int64()
					if err != nil {
						return err
					}
					vals[i] = v
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				if err := p.expect("("); err != nil {
					return err
				}
				for i := 2; i < 4; i++ {
					v, err := p.int64()
					if err != nil {
						return err
					}
					vals[i] = v
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				rel = geom.R(vals[0], vals[1], vals[2], vals[3])
			case "PLACED", "FIXED":
				if err := p.expect("("); err != nil {
					return err
				}
				x, err := p.int64()
				if err != nil {
					return err
				}
				y, err := p.int64()
				if err != nil {
					return err
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				p.next() // orientation
				place = geom.Pt(x, y)
			}
		}
		io.Shape.Rect = rel.Shift(place)
		pend = append(pend, pending{io, netName})
	}
	return fmt.Errorf("def: unterminated PINS")
}

func parseNets(p *parser, d *db.Design) error {
	declared, err := p.sectionCount("NETS")
	if err != nil {
		return err
	}
	var seen int64
	ioByName := make(map[string]*db.IOPin, len(d.IOPins))
	for _, io := range d.IOPins {
		ioByName[io.Name] = io
	}
	for !p.eof() {
		tok := p.next()
		if tok == "END" {
			return p.expect("NETS")
		}
		if tok != "-" {
			return fmt.Errorf("def: expected net entry, got %q", tok)
		}
		if seen++; seen > declared {
			return fmt.Errorf("def: NETS declares %d entries but has more", declared)
		}
		n := &db.Net{Name: p.next()}
		for !p.eof() {
			t := p.next()
			if t == ";" {
				break
			}
			if t != "(" {
				continue
			}
			a := p.next()
			b := p.next()
			if err := p.expect(")"); err != nil {
				return err
			}
			if a == "PIN" {
				if io := ioByName[b]; io != nil {
					n.IOPins = append(n.IOPins, io)
				}
				continue
			}
			inst := d.InstByName(a)
			if inst == nil {
				return fmt.Errorf("def: net %q references unknown instance %q", n.Name, a)
			}
			pin := inst.Master.PinByName(b)
			if pin == nil {
				return fmt.Errorf("def: net %q references unknown pin %s/%s", n.Name, a, b)
			}
			n.Terms = append(n.Terms, db.Term{Inst: inst, Pin: pin})
		}
		d.Nets = append(d.Nets, n)
	}
	return fmt.Errorf("def: unterminated NETS")
}
