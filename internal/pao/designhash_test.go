package pao_test

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
)

// TestDesignHashPinned pins DesignHash to fixed values for generated designs,
// before and after an ECO (a deleted instance leaves emptied terms behind; the
// inserted one is mirrored). Snapshots on disk carry this hash, so any change
// to the hashed bytes would orphan every persisted snapshot.
func TestDesignHashPinned(t *testing.T) {
	for _, tc := range []struct {
		spec          suite.Spec
		before, after string
	}{
		{suite.Testcases[0].Scale(0.01).WithSeed(7),
			"c2923790d772ca0ae5cb22cf640815032c6ab68207e993fa296943dfb6a65ed1",
			"ad1a4d898e49ae54642ad0d87e413cc5a8ca785d70b82876abcf55deb0e6be26"},
		{suite.AES14.Scale(0.01).WithSeed(7), // has IO pins
			"41da1133fbb89dcffee35129ffa49859063078050d66bbc8ff6bb106232b90ca",
			"15cb2a1f5edd050e0c996f01d6ffb2bcf0f220f16f4dad387a24004bbfb29dc1"},
	} {
		d, err := suite.Generate(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := pao.DesignHash(d); got != tc.before {
			t.Errorf("%s: DesignHash = %s, want %s", tc.spec.Name, got, tc.before)
		}
		victim, mover := d.Instances[3], d.Instances[5]
		ops := []pao.ECOOp{
			{Kind: pao.ECODelete, Inst: victim.Name},
			{Kind: pao.ECOInsert, Inst: "eco_x", Master: mover.Master.Name,
				To: geom.Pt(mover.Pos.X+70, mover.Pos.Y), Orient: geom.OrientFS},
		}
		if err := pao.ApplyOpsToDesign(d, ops); err != nil {
			t.Fatal(err)
		}
		if got := pao.DesignHash(d); got != tc.after {
			t.Errorf("%s after ECO: DesignHash = %s, want %s", tc.spec.Name, got, tc.after)
		}
	}
}
