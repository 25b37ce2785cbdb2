package def

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Routing is the detailed-routing result of one net, in DEF REGULAR WIRING
// form: centerline segments and via placements.
type Routing struct {
	Segments []Segment
	Vias     []ViaRef
}

// Segment is one straight centerline piece on a metal layer.
type Segment struct {
	Layer    int // metal number
	From, To geom.Point
}

// ViaRef places a named via.
type ViaRef struct {
	Name string
	At   geom.Point
}

// WriteRouted emits the design as DEF with ROUTED clauses on the nets that
// have routing. Nets absent from the map are written unrouted.
func WriteRouted(w io.Writer, d *db.Design, routing map[string]*Routing) error {
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

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		for _, io := range n.IOPins {
			fmt.Fprintf(bw, " ( PIN %s )", io.Name)
		}
		for _, t := range n.Terms {
			fmt.Fprintf(bw, " ( %s %s )", t.Inst.Name, t.Pin.Name)
		}
		if rt := routing[n.Name]; rt != nil && (len(rt.Segments) > 0 || len(rt.Vias) > 0) {
			first := true
			for _, s := range rt.Segments {
				kw := "NEW"
				if first {
					kw = "+ ROUTED"
					first = false
				}
				fmt.Fprintf(bw, "\n  %s %s ( %d %d ) ( %d %d )",
					kw, d.Tech.Metal(s.Layer).Name, s.From.X, s.From.Y, s.To.X, s.To.Y)
			}
			for _, v := range rt.Vias {
				vd := d.Tech.ViaByName(v.Name)
				if vd == nil {
					return fmt.Errorf("def: unknown via %q in routing of %s", v.Name, n.Name)
				}
				kw := "NEW"
				if first {
					kw = "+ ROUTED"
					first = false
				}
				fmt.Fprintf(bw, "\n  %s %s ( %d %d ) %s",
					kw, d.Tech.Metal(vd.CutBelow).Name, v.At.X, v.At.Y, v.Name)
			}
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

// ParseRouted reads a DEF design plus any ROUTED clauses. It accepts the same
// input as Parse (routing is optional) and additionally returns the parsed
// routing per net name.
func ParseRouted(r io.Reader, t *tech.Technology, masters []*db.Master) (*db.Design, map[string]*Routing, error) {
	p := newParser(r)
	d, routing, err := parseRouted(p, t, masters)
	if terr := p.finish(); terr != nil {
		return nil, nil, terr
	}
	return d, routing, err
}

func parseRouted(p *parser, t *tech.Technology, masters []*db.Master) (*db.Design, map[string]*Routing, error) {
	d := db.NewDesign("", t)
	for _, m := range masters {
		if err := d.AddMaster(m); err != nil {
			return nil, nil, err
		}
	}
	routing := make(map[string]*Routing)
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
				return nil, nil, err
			}
			d.Die = geom.R(vals[0].X, vals[0].Y, vals[1].X, vals[1].Y)
		case "ROW":
			if err := parseRow(p, d); err != nil {
				return nil, nil, err
			}
		case "TRACKS":
			if err := parseTracks(p, d); err != nil {
				return nil, nil, err
			}
		case "COMPONENTS":
			if err := parseComponents(p, d); err != nil {
				return nil, nil, err
			}
		case "PINS":
			if err := parsePins(p, d); err != nil {
				return nil, nil, err
			}
		case "NETS":
			if err := parseRoutedNets(p, d, routing); err != nil {
				return nil, nil, err
			}
		case "END":
			if p.peek() == "DESIGN" {
				p.next()
				return d, routing, nil
			}
		default:
			p.skipStatement()
		}
	}
	return d, routing, nil
}

// parseRoutedNets reads the NETS section including ROUTED/NEW wiring clauses.
func parseRoutedNets(p *parser, d *db.Design, routing map[string]*Routing) error {
	p.skipStatement()
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
		n := &db.Net{Name: p.next()}
		for !p.eof() {
			t := p.next()
			if t == ";" {
				break
			}
			switch t {
			case "(":
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
			case "+":
				if p.peek() == "ROUTED" {
					p.next()
					if err := parseWiring(p, d, n.Name, routing); err != nil {
						return err
					}
					// parseWiring stops at ";" already consumed.
					goto netDone
				}
			}
		}
	netDone:
		d.Nets = append(d.Nets, n)
	}
	return fmt.Errorf("def: unterminated NETS")
}

// parseWiring reads wiring elements (layer + points / via refs, separated by
// NEW) until the terminating ";".
func parseWiring(p *parser, d *db.Design, netName string, routing map[string]*Routing) error {
	rt := routing[netName]
	if rt == nil {
		rt = &Routing{}
		routing[netName] = rt
	}
	for !p.eof() {
		layerName := p.next()
		l := d.Tech.MetalByName(layerName)
		if l == nil {
			return fmt.Errorf("def: routing of %q on unknown layer %q", netName, layerName)
		}
		if err := p.expect("("); err != nil {
			return err
		}
		x1, err := p.int64()
		if err != nil {
			return err
		}
		y1, err := p.int64()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		switch p.peek() {
		case "(":
			p.next()
			x2, err := p.int64()
			if err != nil {
				return err
			}
			y2, err := p.int64()
			if err != nil {
				return err
			}
			if err := p.expect(")"); err != nil {
				return err
			}
			rt.Segments = append(rt.Segments, Segment{
				Layer: l.Num, From: geom.Pt(x1, y1), To: geom.Pt(x2, y2)})
		default:
			viaName := p.next()
			if d.Tech.ViaByName(viaName) == nil {
				return fmt.Errorf("def: routing of %q uses unknown via %q", netName, viaName)
			}
			rt.Vias = append(rt.Vias, ViaRef{Name: viaName, At: geom.Pt(x1, y1)})
		}
		switch p.next() {
		case "NEW":
			continue
		case ";":
			return nil
		default:
			return fmt.Errorf("def: bad wiring separator in %q", netName)
		}
	}
	return fmt.Errorf("def: unterminated wiring of %q", netName)
}
