package pao_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/db"
	"repro/internal/faultinject"
	"repro/internal/pao"
	"repro/internal/suite"
)

func snapshotDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotRoundTrip is the golden property: encode -> decode -> re-encode
// must be byte-identical, and the decoded result must answer every query
// exactly like the original.
func TestSnapshotRoundTrip(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	res := pao.NewAnalyzer(d, cfg).Run()

	var first bytes.Buffer
	if err := pao.EncodeSnapshot(&first, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	restored, err := pao.DecodeSnapshot(bytes.NewReader(first.Bytes()), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := pao.EncodeSnapshot(&second, d, cfg, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode differs: %d vs %d bytes", first.Len(), second.Len())
	}

	if restored.Stats.Counts() != res.Stats.Counts() {
		t.Errorf("stats differ: %+v vs %+v", restored.Stats.Counts(), res.Stats.Counts())
	}
	if len(restored.Unique) != len(res.Unique) {
		t.Fatalf("class count differs: %d vs %d", len(restored.Unique), len(res.Unique))
	}
	for _, net := range d.Nets {
		for _, term := range net.Terms {
			got := restored.AccessPointFor(term.Inst, term.Pin)
			want := res.AccessPointFor(term.Inst, term.Pin)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s/%s: restored AP presence differs", term.Inst.Name, term.Pin.Name)
			}
			if got == nil {
				continue
			}
			if got.Pos != want.Pos || got.Layer != want.Layer ||
				got.TypeX != want.TypeX || got.TypeY != want.TypeY ||
				got.Primary() != want.Primary() {
				t.Fatalf("%s/%s: restored AP %v differs from %v",
					term.Inst.Name, term.Pin.Name, got, want)
			}
		}
	}
}

// TestSnapshotHealthRoundTrip verifies that a quarantined class survives the
// snapshot: the restored Health reports the same failed signature, so a
// warm-restarted server keeps serving degraded answers for it.
func TestSnapshotHealthRoundTrip(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	sig := d.UniqueInstances()[0].Signature()

	a := pao.NewAnalyzer(d, cfg)
	inj := faultinject.New().Add(&faultinject.Fault{
		Site: pao.SiteAnalyzeUnique, Detail: sig, Kind: faultinject.Panic, Note: "snap test",
	})
	a.FaultHook = inj.SiteHook()
	res := a.Run()
	if res.Health.Status(sig) != pao.StatusFailed {
		t.Fatalf("setup: class %s not quarantined", sig)
	}

	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	restored, err := pao.DecodeSnapshot(bytes.NewReader(buf.Bytes()), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Health.Status(sig) != pao.StatusFailed {
		t.Errorf("restored health lost the quarantined class %s", sig)
	}
	if got := restored.Health.FailedClasses(); len(got) != 1 || got[0] != sig {
		t.Errorf("restored FailedClasses = %v", got)
	}
	if len(restored.Health.Errors()) != len(res.Health.Errors()) {
		t.Errorf("restored %d errors, want %d", len(restored.Health.Errors()), len(res.Health.Errors()))
	}
}

// TestSnapshotCorruption injects the three corruption modes the server must
// answer with a recompute: truncation, a flipped checksum byte, and a flipped
// payload byte.
func TestSnapshotCorruption(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	res := pao.NewAnalyzer(d, cfg).Run()
	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"flipped checksum byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
	}
	for _, tc := range cases {
		_, err := pao.DecodeSnapshot(bytes.NewReader(tc.mutate(good)), d, cfg)
		if !errors.Is(err, pao.ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
		if !pao.SnapshotPermanent(err) {
			t.Errorf("%s: corruption must be permanent", tc.name)
		}
	}
}

// TestSnapshotMismatch covers the provenance checks: a different design (new
// seed) and a different analysis config must both be rejected as permanent
// mismatches, never silently rebound.
func TestSnapshotMismatch(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	res := pao.NewAnalyzer(d, cfg).Run()
	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, cfg, res); err != nil {
		t.Fatal(err)
	}

	other, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pao.DecodeSnapshot(bytes.NewReader(buf.Bytes()), other, cfg); !errors.Is(err, pao.ErrSnapshotMismatch) {
		t.Errorf("different design: err = %v, want ErrSnapshotMismatch", err)
	}

	cfg2 := cfg
	cfg2.K = 5
	if _, err := pao.DecodeSnapshot(bytes.NewReader(buf.Bytes()), d, cfg2); !errors.Is(err, pao.ErrSnapshotMismatch) {
		t.Errorf("different config: err = %v, want ErrSnapshotMismatch", err)
	}

	// Workers and FailFast must NOT invalidate: results are worker-invariant.
	cfg3 := cfg
	cfg3.Workers = 8
	cfg3.FailFast = true
	if _, err := pao.DecodeSnapshot(bytes.NewReader(buf.Bytes()), d, cfg3); err != nil {
		t.Errorf("workers/fail-fast variation must still load: %v", err)
	}
}

// TestSnapshotNoCacheRoundTrip: the via cache never changes a result, so a
// snapshot encoded by a cache-off analysis under its own config loads under
// the default config and re-encodes to the cache-on analysis's snapshot.
func TestSnapshotNoCacheRoundTrip(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	off := cfg
	off.NoCache = true
	encode := func(c pao.Config, res *pao.Result) []byte {
		t.Helper()
		res.Stats = res.Stats.Counts()
		var buf bytes.Buffer
		if err := pao.EncodeSnapshot(&buf, d, c, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	snap := encode(off, pao.NewAnalyzer(d, off).Run())
	restored, err := pao.DecodeSnapshot(bytes.NewReader(snap), d, cfg)
	if err != nil {
		t.Fatalf("default config refused a NoCache snapshot: %v", err)
	}
	if got, want := encode(cfg, restored), encode(cfg, pao.NewAnalyzer(d, cfg).Run()); !bytes.Equal(got, want) {
		t.Fatalf("restored NoCache snapshot re-encodes to %d bytes, cache-on analysis to %d", len(got), len(want))
	}
}

// TestSnapshotFileAtomicity checks WriteSnapshotFile leaves no temp droppings
// and that ReadSnapshotFile round-trips through the filesystem.
func TestSnapshotFileAtomicity(t *testing.T) {
	d := snapshotDesign(t)
	cfg := pao.DefaultConfig()
	res := pao.NewAnalyzer(d, cfg).Run()
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.snap")
	if err := pao.WriteSnapshotFile(path, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the rename must replace, not fail.
	if err := pao.WriteSnapshotFile(path, d, cfg, res); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "oracle.snap" {
		t.Errorf("snapshot dir not clean: %v", entries)
	}
	restored, err := pao.ReadSnapshotFile(path, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats.Counts() != res.Stats.Counts() {
		t.Errorf("file round-trip stats differ")
	}
}
