package difftest

import (
	"bytes"
	"testing"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/lef"
	"repro/internal/oracle"
	"repro/internal/pao"
	"repro/internal/tech"
)

// wideCornerDeck is N45 with two-cut vias added and M1 corner spacing raised
// to 420, three times the spacing table's maximum of 140, and eligible from
// M1's minimum width. Corner spacing is then the farthest-reaching M1 rule,
// and it applies to via enclosures too. The deck is written with lef.Write
// and read back with lef.Parse, which sets corner spacing independently of
// the table.
func wideCornerDeck(t *testing.T) *tech.Technology {
	t.Helper()
	base := tech.N45()
	if err := tech.AddDoubleCutVias(base); err != nil {
		t.Fatal(err)
	}
	m1 := base.Metal(1)
	m1.Corner = tech.CornerSpacingRule{EligibleWidth: m1.MinWid, Spacing: 420}
	var buf bytes.Buffer
	if err := lef.Write(&buf, base, nil); err != nil {
		t.Fatal(err)
	}
	lib, err := lef.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l := lib.Tech.Metal(1)
	if l.Corner.Spacing != 420 || l.Spacing.MaxSpacing() != 140 || len(lib.Tech.Vias) != len(base.Vias) {
		t.Fatalf("parsed deck: M1 corner %d, table max %d, %d vias; want 420, 140, %d",
			l.Corner.Spacing, l.Spacing.MaxSpacing(), len(lib.Tech.Vias), len(base.Vias))
	}
	return lib.Tech
}

// TestCornerReachEngineMatchesOracle: when corner spacing reaches past the
// spacing table, the engine's query windows and the via-cache key must still
// see every shape the corner rule can flag. A wide net-1 square sits at the
// origin and net-2 candidates sweep diagonally away from its corner. Metal
// checks, cached via verdicts (after a clean fill far away), and both
// full-design sweeps must all match the oracle.
func TestCornerReachEngineMatchesOracle(t *testing.T) {
	tt := wideCornerDeck(t)
	wide := geom.R(0, 0, 400, 400)
	eng := drc.NewEngine(tt)
	eng.AddMetal(1, wide, 1, drc.KindPin, "wide")
	eng.AttachViaCache(drc.NewViaCache())
	orc := Mirror(eng)
	qc := eng.NewQueryCtx()
	v := tt.ViaByName("VIA1_H")
	if eng.CheckViaVerdictCtx(v, geom.Pt(100000, 100000), 2, nil, qc) != 0 {
		t.Fatal("an isolated via must be clean")
	}

	beyondTable := 0
	for d := int64(0); d <= 500; d += 20 {
		cand := geom.R(400+d, 400+d, 800+d, 800+d)
		ek := DRCKeys(eng.CheckMetalRect(1, cand, 2))
		ok := oracle.Keys(orc.CheckMetalRect(1, cand, 2))
		if !SameKeys(ek, ok) {
			t.Fatalf("metal candidate %v:\nengine: %v\noracle: %v", cand, ek, ok)
		}
		if len(ok) > 0 && d > tt.Metal(1).Spacing.MaxSpacing() {
			beyondTable++
		}

		p := geom.Pt(400+d-v.BotEnc.XL, 400+d-v.BotEnc.YL)
		want := len(oracle.Keys(orc.CheckVia(v, p, 2, nil)))
		if got := eng.CheckViaVerdictCtx(v, p, 2, nil, qc); got != want {
			t.Fatalf("via at %v: cached verdict %d, oracle %d", p, got, want)
		}

		pair := drc.NewEngine(tt)
		pair.AddMetal(1, wide, 1, drc.KindPin, "wide")
		pair.AddMetal(1, cand, 2, drc.KindPin, "cand")
		want2 := oracle.Keys(Mirror(pair).CheckAll())
		if got := DRCKeys(pair.CheckAll()); !SameKeys(got, want2) {
			t.Fatalf("CheckAll with %v:\nengine: %v\noracle: %v", cand, got, want2)
		}
		if got := DRCKeys(pair.CheckAllParallel(2)); !SameKeys(got, want2) {
			t.Fatalf("CheckAllParallel with %v:\nengine: %v\noracle: %v", cand, got, want2)
		}
	}
	if beyondTable == 0 {
		t.Fatal("no candidate beyond the spacing table tripped corner spacing; the sweep is vacuous")
	}
}

// TestViaPairCleanMatchesOracle checks Algorithm 3's pair predicate against
// the independent oracle on every built-in node and the wide-corner deck.
// ViaPairClean must hold exactly when the oracle, holding one via's shapes,
// finds no short, spacing, corner, end-of-line or cut-spacing violation
// against the other's, in both directions (end-of-line windows are
// one-sided). The offsets put the enclosures exactly at, and one DBU inside,
// each shared layer's rule reach (drc.SigHalo), along x and along y, aligned
// and diagonal, so a reach early-out one DBU short fails here.
func TestViaPairCleanMatchesOracle(t *testing.T) {
	decks := []struct {
		name string
		tech *tech.Technology
	}{{"n45", tech.N45()}, {"n32", tech.N32()}, {"n14", tech.N14()}, {"wide_corner", wideCornerDeck(t)}}
	nets := [][2]int{{1, 2}, {3, 3}, {drc.NoNet, drc.NoNet}}
	for _, deck := range decks {
		tt := deck.tech
		t.Run(deck.name, func(t *testing.T) {
			t.Parallel()
			p1 := geom.Pt(50000, 50000)
			checked, dirty := 0, 0
			for _, v1 := range tt.Vias {
				for _, v2 := range tt.Vias {
					for _, off := range pairOffsets(tt, v1, v2) {
						p2 := p1.Add(off)
						for _, n := range nets {
							got := pao.ViaPairClean(tt, v1, p1, n[0], v2, p2, n[1])
							want := oraclePairClean(tt, v1, p1, n[0], v2, p2, n[1])
							if got != want {
								t.Fatalf("ViaPairClean(%s at %v net %d, %s at %v net %d) = %v, oracle %v",
									v1.Name, p1, n[0], v2.Name, p2, n[1], got, want)
							}
							checked++
							if !want {
								dirty++
							}
						}
					}
				}
			}
			t.Logf("%d pairs, %d dirty", checked, dirty)
			if dirty == 0 || dirty == checked {
				t.Fatalf("%d of %d pairs dirty; the comparison is vacuous", dirty, checked)
			}
		})
	}
}

// pairOffsets returns v2's offsets from v1 for the pair comparison: on every
// layer the two vias share, the offsets that leave a gap of 1, reach-1 and
// reach between their shapes on that layer, to either side along x and
// along y, crossed with each other and with 0. The reach is drc.SigHalo on
// a metal layer and the cut spacing on the cut layer.
func pairOffsets(tt *tech.Technology, v1, v2 *tech.ViaDef) []geom.Point {
	xs := map[int64]bool{0: true}
	ys := map[int64]bool{0: true}
	add := func(a, b geom.Rect, reach int64) {
		for _, g := range []int64{1, reach - 1, reach} {
			xs[g+a.XH-b.XL] = true
			xs[-(g + b.XH - a.XL)] = true
			ys[g+a.YH-b.YL] = true
			ys[-(g + b.YH - a.YL)] = true
		}
	}
	enc1 := [2]geom.Rect{v1.BotEnc, v1.TopEnc}
	enc2 := [2]geom.Rect{v2.BotEnc, v2.TopEnc}
	for i, e1 := range enc1 {
		for j, e2 := range enc2 {
			if layer := v1.CutBelow + i; layer == v2.CutBelow+j {
				add(e1, e2, drc.SigHalo(tt.Metal(layer)))
			}
		}
	}
	if v1.CutBelow == v2.CutBelow {
		for _, c1 := range v1.Cuts {
			for _, c2 := range v2.Cuts {
				add(c1, c2, tt.Cut(v1.CutBelow).Spacing)
			}
		}
	}
	if len(xs) == 1 {
		return nil // no shared layer: nothing to compare
	}
	out := make([]geom.Point, 0, len(xs)*len(ys))
	for x := range xs {
		for y := range ys {
			out = append(out, geom.Pt(x, y))
		}
	}
	return out
}

// oraclePairClean is the reference verdict for a via pair.
func oraclePairClean(tt *tech.Technology, v1 *tech.ViaDef, p1 geom.Point, n1 int, v2 *tech.ViaDef, p2 geom.Point, n2 int) bool {
	return len(oracleViaAgainst(tt, v1, p1, n1, v2, p2, n2)) == 0 &&
		len(oracleViaAgainst(tt, v2, p2, n2, v1, p1, n1)) == 0
}

// oracleViaAgainst checks via a's enclosures and cuts against an oracle that
// holds only via b's shapes: shorts, spacing and corner spacing, a's
// end-of-line windows, and cut spacing.
func oracleViaAgainst(tt *tech.Technology, a *tech.ViaDef, pa geom.Point, na int, b *tech.ViaDef, pb geom.Point, nb int) []oracle.Violation {
	c := oracle.New(tt)
	c.AddMetal(b.CutBelow, b.BotRect(pb), nb)
	c.AddMetal(b.CutBelow+1, b.TopRect(pb), nb)
	for _, r := range b.CutRects(pb) {
		c.AddCut(b.CutBelow, r, nb)
	}
	k := a.CutBelow
	bot, top := a.BotRect(pa), a.TopRect(pa)
	out := append(c.CheckMetalRect(k, bot, na), c.CheckMetalRect(k+1, top, na)...)
	out = append(out, c.CheckEOLRect(k, bot, na)...)
	out = append(out, c.CheckEOLRect(k+1, top, na)...)
	for _, r := range a.CutRects(pa) {
		out = append(out, c.CheckCutRect(k, r, na)...)
	}
	return out
}
