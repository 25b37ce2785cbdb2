package pao

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/suite"
)

// TestSuiteInvariants sweeps several generated testcases and asserts the
// framework's structural invariants on the real workloads:
//
//  1. every access point lies on its pin's shape;
//  2. every access point's primary via re-validates clean in the isolated
//     cell context (Step 1's contract — zero dirty APs);
//  3. every emitted pattern's chosen access points are pairwise via-clean,
//     including non-neighbors (the "unseen DRCs" validation);
//  4. pattern choices index valid access points;
//  5. members of a unique instance class receive translated copies of the
//     same access point set.
func TestSuiteInvariants(t *testing.T) {
	for _, spec := range []suite.Spec{
		suite.Testcases[0], // 45 nm
		suite.Testcases[3], // 32 nm, jittered rows
		suite.AES14,        // 14 nm, misaligned
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := suite.Generate(spec.Scale(0.01))
			if err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer(d, DefaultConfig())
			res := a.Run()

			if dirty := a.CountDirtyAPs(res); dirty != 0 {
				t.Errorf("invariant 2: %d dirty APs", dirty)
			}
			for _, ua := range res.Unique {
				pivot := ua.UI.Pivot()
				for _, pa := range ua.Pins {
					var rects []geom.Rect
					for _, s := range pivot.PinShapes(pa.Pin) {
						rects = append(rects, s.Rect)
					}
					for _, ap := range pa.APs {
						if !geom.CoversPt(rects, ap.Pos) {
							t.Fatalf("invariant 1: AP %v off pin %s/%s", ap, pivot.Master.Name, pa.Pin.Name)
						}
					}
				}
				for _, pat := range ua.Patterns {
					if len(pat.Choice) != len(ua.Pins) {
						t.Fatalf("invariant 4: choice length %d != %d pins", len(pat.Choice), len(ua.Pins))
					}
					var chosen []*AccessPoint
					for i, c := range pat.Choice {
						if c < 0 {
							continue
						}
						if c >= len(ua.Pins[i].APs) {
							t.Fatalf("invariant 4: choice %d out of range", c)
						}
						chosen = append(chosen, ua.Pins[i].APs[c])
					}
					for i := 0; i < len(chosen); i++ {
						for j := i + 1; j < len(chosen); j++ {
							if !a.apPairClean(chosen[i], chosen[j], 1, 2) {
								t.Fatalf("invariant 3: pattern pair %v / %v conflicts", chosen[i], chosen[j])
							}
						}
					}
				}
				// Invariant 5: spot-check the translation for one member.
				if len(ua.UI.Insts) > 1 {
					member := ua.UI.Insts[1]
					for _, pa := range ua.Pins {
						if len(pa.APs) == 0 {
							continue
						}
						p := ua.TranslateTo(member, pa.APs[0].Pos)
						var rects []geom.Rect
						for _, s := range member.PinShapes(pa.Pin) {
							rects = append(rects, s.Rect)
						}
						if !geom.CoversPt(rects, p) {
							t.Fatalf("invariant 5: translated AP %v off member pin %s/%s",
								p, member.Name, pa.Pin.Name)
						}
					}
				}
			}
		})
	}
}
