package pao_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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

// TestSignaturePinned pins the class-signature bytes for generated designs.
// Signatures are the class field of /v1/access answers, the Health keys, the
// distributed analyze request and the benchmark's expected answers, so the
// rendering of UniqueInstance.Signature and Design.InstanceSignature must not
// drift. all hashes every class signature in partition order, inst every
// instance's InstanceSignature in design order.
func TestSignaturePinned(t *testing.T) {
	for _, tc := range []struct {
		spec               suite.Spec
		first, last        string
		classes, all, inst string
		moved              string // d.Instances[3] shifted off its tracks
	}{
		{suite.Testcases[0].Scale(0.01).WithSeed(7),
			"AND2X1_V2/FS/70/70/70/70/0/0/0/0/0", "OR2X1_V7/N/70/70/70/70/0/0/0/0/0", "66",
			"78f42b850931ee1369211b8b712fb4a6b61abefa0dbefc773b2af6702bd79ec8",
			"996ae9dbbeaea9c0015b5c372f3962621cd5457d1521f5da4339c42ce4853541",
			"DFFX1_V5/FS/73/105/73/105/0/0/0/0/0"},
		{suite.AES14.Scale(0.01).WithSeed(7),
			"AND2X1/FS/32/40/32/40/0/0/0/0/0", "OR2X1_V8/FS/32/40/32/40/0/0/0/0/0", "150",
			"4eaad3392dceddeeedabce56663d2c356a87b6d531b2c1950d7e395a2651cfbf",
			"c7f2ba0d224328900d86d6c252a07dd6cbb86bb9601d3bc7c2f9a19f0a48619b",
			"OR2X1_V8/FS/35/11/35/11/0/0/0/0/0"},
	} {
		d, err := suite.Generate(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		uis := d.UniqueInstances()
		all, inst := sha256.New(), sha256.New()
		for _, ui := range uis {
			fmt.Fprintln(all, ui.Signature())
		}
		for _, in := range d.Instances {
			fmt.Fprintln(inst, d.InstanceSignature(in))
		}
		mv := d.Instances[3]
		mv.Pos = mv.Pos.Add(geom.Pt(35, 3))
		got := []string{uis[0].Signature(), uis[len(uis)-1].Signature(), fmt.Sprint(len(uis)),
			hex.EncodeToString(all.Sum(nil)), hex.EncodeToString(inst.Sum(nil)), d.InstanceSignature(mv)}
		want := []string{tc.first, tc.last, tc.classes, tc.all, tc.inst, tc.moved}
		for i, name := range []string{"first Signature", "last Signature", "classes",
			"Signature hash", "InstanceSignature hash", "moved InstanceSignature"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s = %s, want %s", tc.spec.Name, name, got[i], want[i])
			}
		}
	}
}
