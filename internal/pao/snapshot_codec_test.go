package pao

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the FuzzDecodeSnapshot corpus entries of snapshotCorruptions")

// snapshotCorruptions are crafted payload corruptions, each built at run time
// from a valid payload of the codec design and named after its committed
// FuzzDecodeSnapshot corpus entry. Each must fail as ErrSnapshotCorrupt with
// its reason: a corruption that fails earlier, for instance on a class the
// design no longer has, tests nothing past that point.
var snapshotCorruptions = []struct {
	name, reason string
	// build returns the corrupt payload; res is a private copy it may edit.
	build func(tb testing.TB, res *Result) []byte
}{
	{"overlong_varint", "bad varint", func(tb testing.TB, res *Result) []byte {
		p := appendPayload(nil, res)
		_, n := binary.Uvarint(p)
		p[n-1] |= 0x80 // the first varint, one zero byte too long
		return append(p[:n:n], append([]byte{0}, p[n:]...)...)
	}},
	{"huge_via_count", "via count", func(tb testing.TB, res *Result) []byte {
		p := appendPayload(nil, res)
		k := 0
		ints, durs := statsFields(&res.Stats)
		for range len(ints) + len(durs) {
			_, n := binary.Uvarint(p[k:])
			k += n
		}
		return binary.AppendUvarint(p[:k], math.MaxUint32)
	}},
	{"choice_out_of_range", "chooses access point", func(tb testing.TB, res *Result) []byte {
		ua := patternedClass(tb, res)
		ua.Patterns[0].Choice[0] = len(ua.Pins[0].APs)
		return appendPayload(nil, res)
	}},
	{"choice_list_short", "choices for", func(tb testing.TB, res *Result) []byte {
		p := patternedClass(tb, res).Patterns[0]
		p.Choice = p.Choice[:len(p.Choice)-1]
		return appendPayload(nil, res)
	}},
	{"selected_pattern_out_of_range", "selected pattern", func(tb testing.TB, res *Result) []byte {
		id := lastSelected(tb, res)
		res.Selected[id] = len(res.ByInstance[id].Patterns)
		return appendPayload(nil, res)
	}},
	{"selected_foreign_instance", "no snapshot class holds", func(tb testing.TB, res *Result) []byte {
		id := lastSelected(tb, res)
		delete(res.Selected, id)
		foreign := 0
		for k := range res.ByInstance {
			foreign = max(foreign, k+1)
		}
		res.Selected[foreign] = 0
		return appendPayload(nil, res)
	}},
	{"trailing_byte", "bytes after the payload", func(tb testing.TB, res *Result) []byte {
		return append(appendPayload(nil, res), 0)
	}},
	{"classes_out_of_order", "out of partition order", func(tb testing.TB, res *Result) []byte {
		res.Unique[0], res.Unique[1] = res.Unique[1], res.Unique[0]
		return appendPayload(nil, res)
	}},
}

// patternedClass returns the first class with a pin and a pattern.
func patternedClass(tb testing.TB, res *Result) *UniqueAccess {
	for _, ua := range res.Unique {
		if len(ua.Pins) > 0 && len(ua.Patterns) > 0 {
			return ua
		}
	}
	tb.Fatal("no class has a pin and a pattern")
	return nil
}

// lastSelected returns the highest instance ID with a selection.
func lastSelected(tb testing.TB, res *Result) int {
	last := -1
	for id := range res.Selected {
		last = max(last, id)
	}
	if last < 0 {
		tb.Fatal("no selections")
	}
	return last
}

// TestSnapshotCorruptReasons decodes each of snapshotCorruptions, built from
// today's payload and read from the committed corpus, and requires
// ErrSnapshotCorrupt with its reason. A corpus entry that fails for another
// reason has gone stale: rebuild the corpus with -update-corpus.
func TestSnapshotCorruptReasons(t *testing.T) {
	d, cfg, res := codecDesign(t)
	good := appendPayload(nil, res)
	hash, fp := DesignHash(d), ConfigFingerprint(cfg)
	decode := func(payload []byte) error {
		t.Helper()
		snap, err := sealSnapshot(hash, fp, payload)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeSnapshot(bytes.NewReader(snap), d, cfg)
		return err
	}
	if err := decode(good); err != nil {
		t.Fatalf("the unmutated payload does not decode: %v", err)
	}
	for _, tc := range snapshotCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			own, err := decodePayload(good, d)
			if err != nil {
				t.Fatal(err)
			}
			own.Stats = own.Stats.Counts() // reproducible corpus bytes
			payload := tc.build(t, own)
			path := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", tc.name)
			if *updateCorpus {
				entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
				if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			corpus, err := readCorpusBytes(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []struct {
				what    string
				payload []byte
			}{{"built", payload}, {"corpus", corpus}} {
				err := decode(in.payload)
				if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), tc.reason) {
					t.Errorf("%s payload: err = %v, want ErrSnapshotCorrupt with %q", in.what, err, tc.reason)
				}
			}
		})
	}
}

// readCorpusBytes reads a one-value []byte fuzz corpus file.
func readCorpusBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lit, okPrefix := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	lit, okSuffix := strings.CutSuffix(lit, ")")
	if !okPrefix || !okSuffix {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	return []byte(s), err
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
