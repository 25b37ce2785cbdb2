package pao

import (
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/suite"
	"repro/internal/tech"
)

// TestExplainDifferential proves the explain audit is truthful: for every
// candidate access point in the report, every per-via verdict must equal the
// answer a live (uncached) CheckVia gives for the same via at the same point —
// whether the explain re-derivation itself ran with the verdict caches on or
// off. This is the contract that lets an operator trust /v1/access/explain as
// evidence of what the oracle actually checked.
func TestExplainDifferential(t *testing.T) {
	for _, spec := range []suite.Spec{
		suite.Testcases[0], // 45 nm
		suite.Testcases[3], // 32 nm, jittered rows
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := suite.Generate(spec.Scale(0.02))
			if err != nil {
				t.Fatal(err)
			}
			ui := d.UniqueInstances()[0]
			inst := ui.Pivot()
			pins := inst.Master.SignalPins()
			if len(pins) == 0 {
				t.Fatal("pivot has no signal pins")
			}
			pin := pins[0]

			for _, noCache := range []bool{false, true} {
				name := "cache-on"
				if noCache {
					name = "cache-off"
				}
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.NoCache = noCache
					rep, err := Explain(d, cfg, inst, pin.Name)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Quarantined {
						t.Fatalf("explain quarantined: %s", rep.QuarantineError)
					}
					if rep.Cached == noCache {
						t.Fatalf("Cached = %v with NoCache = %v", rep.Cached, noCache)
					}
					if len(rep.APs) == 0 {
						t.Fatal("explain recorded no candidate access points")
					}
					if noCache {
						if rep.Cache.ViaHits != 0 || rep.Cache.ViaMisses != 0 {
							t.Fatalf("cache-off audit reports cache traffic: %+v", rep.Cache)
						}
					} else if rep.Cache.ViaHits+rep.Cache.ViaMisses == 0 {
						t.Fatalf("cache-on audit reports no via-cache traffic: %+v", rep.Cache)
					}
					diffVerdicts(t, d, ui, pin, rep)
				})
			}
		})
	}
}

// diffVerdicts re-checks every audited via verdict against a fresh uncached
// engine over the same isolated cell context and fails on any mismatch.
func diffVerdicts(t *testing.T, d *db.Design, ui *db.UniqueInstance, pin *db.MPin, rep *ExplainReport) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NoCache = true
	live := NewAnalyzer(d, cfg)
	sc := live.newCellScratch()
	live.fill(sc, ui)
	eng := sc.eng
	pivot := ui.Pivot()
	net := sc.netOf(pin)

	viaByName := make(map[string]*tech.ViaDef)
	for layer := 0; layer < d.Tech.NumMetals(); layer++ {
		for _, v := range d.Tech.ViasAbove(layer) {
			viaByName[v.Name] = v
		}
	}

	checked := 0
	for _, au := range rep.APs {
		pinRects := appendPinRects(nil, pivot, pin, au.Layer)
		for _, va := range au.Vias {
			v := viaByName[va.Via]
			if v == nil {
				t.Fatalf("audit names unknown via %q", va.Via)
			}
			got := len(eng.CheckVia(v, geom.Pt(au.X, au.Y), net, pinRects))
			if got != va.Violations {
				t.Errorf("AP (%d,%d) layer %d via %s: audit verdict %d, live CheckVia %d (from_cache=%v)",
					au.X, au.Y, au.Layer, va.Via, va.Violations, got, va.FromCache)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("audit contains no via verdicts to verify")
	}
}
