// Package clitest provides LEF/DEF fixtures for tests. WriteLEFDEF writes a
// small suite testcase as a LEF/DEF pair in a test temp directory, so every
// cmd/ tool exercises its real parse path end to end; RoundTrip passes a
// design through LEF/DEF text, the input path of paorun -lef/-def and inline
// registrations.
package clitest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/suite"
)

// SmallSpec is the shared tiny testcase (≈90 cells) used by the CLI smoke
// tests; the fixed seed keeps every tool's output deterministic.
func SmallSpec() suite.Spec {
	return suite.Testcases[0].Scale(0.01).WithSeed(7)
}

// WriteLEFDEF generates spec, applies the optional mutation (e.g. forcing an
// overlap so DRC has something to find), and writes the design as a LEF/DEF
// pair under a fresh temp directory, returning both paths.
func WriteLEFDEF(tb testing.TB, spec suite.Spec, mutate func(*db.Design)) (lefPath, defPath string) {
	tb.Helper()
	d, err := suite.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if mutate != nil {
		mutate(d)
	}
	dir := tb.TempDir()
	lefPath = filepath.Join(dir, d.Name+".lef")
	defPath = filepath.Join(dir, d.Name+".def")
	lefText, defText := encode(tb, d)
	if err := os.WriteFile(lefPath, lefText, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(defPath, defText, 0o644); err != nil {
		tb.Fatal(err)
	}
	return lefPath, defPath
}

// RoundTrip writes d as LEF and DEF and parses both back into a new design.
func RoundTrip(tb testing.TB, d *db.Design) *db.Design {
	tb.Helper()
	lefText, defText := encode(tb, d)
	lib, err := lef.Parse(bytes.NewReader(lefText))
	if err != nil {
		tb.Fatal(err)
	}
	out, err := def.Parse(bytes.NewReader(defText), lib.Tech, lib.Masters)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// encode serializes d's library as LEF and the design as DEF.
func encode(tb testing.TB, d *db.Design) (lefText, defText []byte) {
	tb.Helper()
	var lefBuf, defBuf bytes.Buffer
	if err := lef.Write(&lefBuf, d.Tech, d.Masters); err != nil {
		tb.Fatal(err)
	}
	if err := def.Write(&defBuf, d); err != nil {
		tb.Fatal(err)
	}
	return lefBuf.Bytes(), defBuf.Bytes()
}

// ForceShort adds an IO pin whose shape exactly copies a connected signal
// pin's shape but binds it to a different net, so the fixed geometry carries
// a guaranteed Short — the fixture for paodrc's nonzero-exit path. (Merely
// overlapping two instances is not enough: their unconnected and power pins
// all carry NoNet, which the checker exempts pairwise.)
func ForceShort(d *db.Design) {
	if len(d.Nets) < 2 || len(d.Nets[0].Terms) == 0 {
		panic("clitest: design too small to force a short")
	}
	term := d.Nets[0].Terms[0]
	shapes := term.Inst.PinShapes(term.Pin)
	io := &db.IOPin{Name: "clitest_short", Dir: db.DirInput, Shape: shapes[0]}
	d.IOPins = append(d.IOPins, io)
	d.Nets[1].IOPins = append(d.Nets[1].IOPins, io)
}
