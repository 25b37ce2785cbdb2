package cliutil

import (
	"testing"

	"repro/internal/clitest"
)

// TestLoadDesign: a generated testcase and its LEF/DEF round trip load as
// the same placement, and every bad input is an error.
func TestLoadDesign(t *testing.T) {
	spec := clitest.SmallSpec()
	lefPath, defPath := clitest.WriteLEFDEF(t, spec, nil)
	gen, err := LoadDesign(DesignSource{Case: "pao_test1", Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := LoadDesign(DesignSource{LEF: lefPath, DEF: defPath})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Name != spec.Name || parsed.Name != gen.Name || len(parsed.Instances) != len(gen.Instances) {
		t.Fatalf("generated %s (%d instances), parsed %s (%d), want %s", gen.Name, len(gen.Instances),
			parsed.Name, len(parsed.Instances), spec.Name)
	}
	for i, g := range gen.Instances {
		p := parsed.Instances[i]
		if p.Name != g.Name || p.Master.Name != g.Master.Name || p.Pos != g.Pos || p.Orient != g.Orient {
			t.Fatalf("instance %d: parsed %s %s %v %v, generated %s %s %v %v", i,
				p.Name, p.Master.Name, p.Pos, p.Orient, g.Name, g.Master.Name, g.Pos, g.Orient)
		}
	}
	for _, src := range []DesignSource{
		{Case: "nope"},
		{LEF: "/nonexistent.lef", DEF: defPath},
		{LEF: lefPath, DEF: "/nonexistent.def"},
		{LEF: defPath, DEF: defPath},
	} {
		if _, err := LoadDesign(src); err == nil {
			t.Errorf("LoadDesign(%+v) = nil error", src)
		}
	}
}
