package def

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
)

// TestParseRejectsHostileInput pins the input-hardening bounds: oversized
// tokens, overflowing coordinates and lying section headers must come back
// as errors, never as a half-parsed design.
func TestParseRejectsHostileInput(t *testing.T) {
	d := buildDesign(t)
	master := d.Instances[0].Master.Name
	cases := []struct {
		name, src, wantSub string
	}{
		{"giant token", "DESIGN " + strings.Repeat("x", maxTokenLen+1) + " ;\n", "byte limit"},
		{"overflow coordinate", "DIEAREA ( 0 0 ) ( 9223372036854775806 10 ) ;\n", "magnitude limit"},
		{"negative components count", "COMPONENTS -3 ;\nEND COMPONENTS\n", "COMPONENTS declares"},
		{"huge components count", fmt.Sprintf("COMPONENTS %d ;\nEND COMPONENTS\n", maxSectionCount+1), "COMPONENTS declares"},
		{"negative pins count", "PINS -1 ;\nEND PINS\n", "PINS declares"},
		{"negative nets count", "NETS -1 ;\nEND NETS\n", "NETS declares"},
		{"undercounted components", fmt.Sprintf("COMPONENTS 1 ;\n- a %s ;\n- b %s ;\nEND COMPONENTS\n", master, master), "declares 1 entries but has more"},
		{"undercounted nets", "NETS 0 ;\n- n ;\nEND NETS\n", "declares 0 entries but has more"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src), d.Tech, d.Masters)
			if err == nil {
				t.Fatalf("Parse accepted hostile input %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Parse error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseRefusesOversizedShapes: a design holding a shape the DRC index
// would not take (drc.CheckExtent) is an input error, not a failure inside
// the engine. At the 45 nm node's 3,360-DBU index bin, a macro obstruction
// 2,047 bins on a side is the largest square every placement of which fits
// the index's 2^22-bin cap; one DBU more is refused, as are a master pin and
// an IO pin over the cap, and an unplaced master over it (an ECO insert may
// place it).
func TestParseRefusesOversizedShapes(t *testing.T) {
	const side = 2047 * 3360
	cases := []struct {
		name    string
		edit    func(d *db.Design, big *db.Master)
		wantSub string // "" when the design parses
	}{
		{"unplaced master over the cap", func(d *db.Design, big *db.Master) {
			spare := &db.Master{Name: "SPARE", Class: db.ClassBlock, Size: geom.Pt(side+1000, side+1000),
				Obs: []db.Shape{{Layer: 2, Rect: geom.R(0, 0, side, side+1)}}}
			if err := d.AddMaster(spare); err != nil {
				t.Fatal(err)
			}
		}, "master SPARE obstruction"},
		{"obstruction at the cap", func(d *db.Design, big *db.Master) {
			big.Obs = []db.Shape{{Layer: 1, Rect: geom.R(0, 0, side, side)}}
		}, ""},
		{"obstruction over the cap", func(d *db.Design, big *db.Master) {
			big.Obs = []db.Shape{{Layer: 1, Rect: geom.R(0, 0, side+1, side)}}
		}, "master BIGMAC obstruction"},
		{"master pin over the cap", func(d *db.Design, big *db.Master) {
			big.Pins[0].Shapes[0].Rect = geom.R(0, 0, side, side+1)
		}, "master BIGMAC pin A"},
		{"IO pin over the cap", func(d *db.Design, big *db.Master) {
			d.IOPins[0].Shape.Rect = geom.R(-1_000_000_000_000, 0, 1_000_000_000_000, 100)
		}, "pin clk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := buildDesign(t)
			big := &db.Master{Name: "BIGMAC", Class: db.ClassBlock, Size: geom.Pt(side+1000, side+1000),
				Pins: []*db.MPin{{Name: "A", Use: db.UseSignal, Shapes: []db.Shape{{Layer: 2, Rect: geom.R(0, 0, 70, 70)}}}}}
			if err := d.AddMaster(big); err != nil {
				t.Fatal(err)
			}
			if err := d.AddInstance(&db.Instance{Name: "m0", Master: big, Pos: geom.Pt(10000, 10000), Orient: geom.OrientN}); err != nil {
				t.Fatal(err)
			}
			tc.edit(d, big)
			var buf bytes.Buffer
			if err := Write(&buf, d); err != nil {
				t.Fatal(err)
			}
			for _, routed := range []bool{false, true} {
				var err error
				if routed {
					_, _, err = ParseRouted(bytes.NewReader(buf.Bytes()), d.Tech, d.Masters)
				} else {
					_, err = Parse(bytes.NewReader(buf.Bytes()), d.Tech, d.Masters)
				}
				switch {
				case tc.wantSub == "" && err != nil:
					t.Fatalf("routed %v: Parse refused the design: %v", routed, err)
				case tc.wantSub != "" && (err == nil || !strings.Contains(err.Error(), tc.wantSub)):
					t.Fatalf("routed %v: Parse error = %v, want one naming %q", routed, err, tc.wantSub)
				}
			}
		})
	}
}
