package pao

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"errors"
	"runtime"
	"testing"

	"repro/internal/db"
	"repro/internal/suite"
)

func codecDesign(tb testing.TB) (*db.Design, Config, *Result) {
	tb.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.002).WithSeed(7))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	return d, cfg, NewAnalyzer(d, cfg).Run()
}

// FuzzDecodeSnapshot feeds mutated payloads through the whole decoder. Each
// input is sealed as a snapshot of the fuzz design (header, compression,
// checksum), so a mutation reaches the payload validation instead of failing
// the checksum. The decoder must not panic, must fail only permanently, and
// a snapshot it accepts must answer every net term and re-encode to the same
// bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	d, cfg, res := codecDesign(f)
	payload := appendPayload(nil, res)
	for _, n := range []int{len(payload), len(payload) * 3 / 4, len(payload) / 2, len(payload) / 4, 64, 0} {
		f.Add(payload[:n])
	}
	hash, fp := DesignHash(d), ConfigFingerprint(cfg)
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := sealSnapshot(hash, fp, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(bytes.NewReader(snap), d, cfg)
		if err != nil {
			if !SnapshotPermanent(err) {
				t.Fatalf("decode failed with a transient error: %v", err)
			}
			return
		}
		for _, net := range d.Nets {
			for _, term := range net.Terms {
				got.AccessPointFor(term.Inst, term.Pin)
			}
		}
		var re bytes.Buffer
		if err := EncodeSnapshot(&re, d, cfg, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), snap) {
			t.Fatalf("accepted snapshot re-encodes to other bytes (%d vs %d)", re.Len(), len(snap))
		}
	})
}

// TestSnapshotInflateBounded: a checksummed snapshot whose payload inflates
// to 256 MB of zeros is corrupt whether its header declares that length
// (over the cap) or a small one (inflation runs past it), and rejecting it
// allocates a small fraction of the bomb.
func TestSnapshotInflateBounded(t *testing.T) {
	d, cfg, _ := codecDesign(t)
	var z bytes.Buffer
	zw, err := flate.NewWriter(&z, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 1<<20)
	for i := 0; i < 256; i++ {
		if _, err := zw.Write(zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, declared := range []uint64{256 << 20, 1 << 20} {
		snap := append(snapHeader(DesignHash(d), ConfigFingerprint(cfg), declared), z.Bytes()...)
		sum := sha256.Sum256(snap)
		snap = append(snap, sum[:]...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(bytes.NewReader(snap), d, cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("declared %d bytes: err = %v, want ErrSnapshotCorrupt", declared, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Errorf("declared %d bytes: decoding allocated %d MB", declared, grew>>20)
		}
	}
}
