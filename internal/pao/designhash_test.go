package pao_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/db"
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
			"fa86ef25b5e9267fd1226ff0d46bc2b4899ab4bc0141016c5849141679bec75f",
			"9e3d79eb4dddcfb8def055b685395b65ee5eaa1f9b62248361b3c6641ccde79f"},
		{suite.AES14.Scale(0.01).WithSeed(7), // has IO pins
			"d42df0ccd69bfab41ac9b6cca8366d19175629ff9fb3d497460f7b092072c569",
			"5bf51e59c10073d786a2271b783045101d62df285ec59acc6a1f950e13c71d4f"},
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
			"AND2X1_V2/FS/70/70/0/0/0/0/0/0/0", "OR2X1_V7/N/70/70/0/0/0/0/0/0/0", "66",
			"d6322c9b1fb5dc561276ddc1062e01bb43d0d0eba1ed76befb5f29768d79f8b9",
			"de0bd4e6742c4486a03f43691c190f9af043125ec8c347521753ed3da1275ec3",
			"DFFX1_V5/FS/73/105/0/0/0/0/0/0/0"},
		{suite.AES14.Scale(0.01).WithSeed(7),
			"AND2X1/FS/32/40/0/0/0/0/0/0/0", "OR2X1_V8/FS/32/40/0/0/0/0/0/0/0", "150",
			"7c06adaf243c97e667e572e84fed1ffcfb8aeef0734b88ef17d7cd3ef5c47027",
			"5615970cd031ae76f011566aa470f7b60a62af08af6961d41c703b21890f0b49",
			"OR2X1_V8/FS/35/11/0/0/0/0/0/0/0"},
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

// TestDesignHashCoversMasters: a corrected library under the same design —
// one pin shifted by an M1 pitch, an obstruction added, a pin's use or the
// cell size changed — must change the design hash, so the snapshot analyzed
// against the old library is refused (ErrSnapshotMismatch) instead of
// serving its stale access points.
func TestDesignHashCoversMasters(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	d, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pao.DefaultConfig()
	var snap bytes.Buffer
	if err := pao.EncodeSnapshot(&snap, d, cfg, pao.NewAnalyzer(d, cfg).Run()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(m *db.Master, pitch int64)
	}{
		{"pin shape", func(m *db.Master, pitch int64) {
			for i := range m.PinByName("A").Shapes {
				r := &m.PinByName("A").Shapes[i].Rect
				*r = geom.R(r.XL+pitch, r.YL, r.XH+pitch, r.YH)
			}
		}},
		{"obs", func(m *db.Master, pitch int64) {
			m.Obs = append(m.Obs, db.Shape{Layer: 1, Rect: geom.R(0, 0, pitch, pitch)})
		}},
		{"pin use", func(m *db.Master, _ int64) { m.PinByName("A").Use = db.UseClock }},
		{"size", func(m *db.Master, pitch int64) { m.Size.X += pitch }},
	} {
		e, err := suite.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(e.MasterByName("NOR2X1"), e.Tech.Metal(1).Pitch)
		if pao.DesignHash(e) == pao.DesignHash(d) {
			t.Errorf("%s edit: DesignHash unchanged", tc.name)
		}
		if _, err := pao.DecodeSnapshot(bytes.NewReader(snap.Bytes()), e, cfg); !errors.Is(err, pao.ErrSnapshotMismatch) {
			t.Errorf("%s edit: DecodeSnapshot error = %v, want ErrSnapshotMismatch", tc.name, err)
		}
	}
}
