package difftest

// Differential and metamorphic gates for the incremental ECO engine
// (pao.ECOSession). The ground truth is always a fresh full analysis of a
// deterministic twin design mutated by the same script through the shared
// design-level applier (pao.ApplyOpsToDesign) — so an ECO'd design and its
// twin are structurally identical, instance IDs included, and the results can
// be compared byte-for-byte as snapshots.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
)

// snapshotBytes encodes a result with timings zeroed, so comparisons cover
// exactly the result content. The config is passed explicitly because it is
// part of the snapshot fingerprint: cache-on and cache-off paths must encode
// with the same config for their bytes to be comparable.
func snapshotBytes(t *testing.T, d *db.Design, cfg pao.Config, res *pao.Result) []byte {
	t.Helper()
	flat := *res
	flat.Stats = res.Stats.Counts()
	var buf bytes.Buffer
	if err := pao.EncodeSnapshot(&buf, d, cfg, &flat); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genECOScript produces a deterministic pseudo-random ECO script against the
// design's current state: moves near other instances' rows (so clusters
// split, merge and extend), swaps, inserts of existing masters at fresh
// names, and a bounded number of deletes. The generator only reads d, so
// positions and masters come from instances d already has, never from one
// this script inserts.
func genECOScript(d *db.Design, rng *rand.Rand, n, round int) []pao.ECOOp {
	var alive []string
	for _, inst := range d.Instances {
		alive = append(alive, inst.Name)
	}
	pick := func() string { return alive[rng.Intn(len(alive))] }
	anchor := func() *db.Instance { return d.Instances[rng.Intn(len(d.Instances))] }
	jitter := []int64{-560, -140, -70, 0, 70, 140, 560}
	target := func() geom.Point {
		at := anchor().Pos
		return geom.Pt(at.X+jitter[rng.Intn(len(jitter))], at.Y)
	}
	var ops []pao.ECOOp
	deletes := 0
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 4: // move
			ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: pick(), To: target()})
		case k < 6: // swap
			a, b := pick(), pick()
			if a == b {
				continue
			}
			ops = append(ops, pao.ECOOp{Kind: pao.ECOSwap, Inst: a, Other: b})
		case k < 8: // insert
			name := fmt.Sprintf("eco_r%d_%d", round, len(ops))
			master := anchor().Master.Name
			ops = append(ops, pao.ECOOp{Kind: pao.ECOInsert, Inst: name, Master: master, To: target(), Orient: geom.OrientN})
			alive = append(alive, name)
		default: // delete
			if deletes >= n/3 || len(alive) < 4 {
				continue
			}
			victim := pick()
			ops = append(ops, pao.ECOOp{Kind: pao.ECODelete, Inst: victim})
			for i, nm := range alive {
				if nm == victim {
					alive = append(alive[:i], alive[i+1:]...)
					break
				}
			}
			deletes++
		}
	}
	return ops
}

// sameMembership fails unless the ECO result binds every instance exactly as
// the fresh one does. The snapshot encodes neither ByInstance nor any class's
// members, so a stale entry left by patching the previous result would pass
// the byte comparison: each instance must map to the class of the same
// signature, each class must list the same member IDs, every member must map
// to the class object that lists it, and nothing else may be bound.
func sameMembership(t *testing.T, label string, d *db.Design, eco, fresh *pao.Result) {
	t.Helper()
	if len(eco.ByInstance) != len(fresh.ByInstance) {
		t.Fatalf("%s: %d bound instances, fresh %d", label, len(eco.ByInstance), len(fresh.ByInstance))
	}
	for _, inst := range d.Instances {
		e, f := eco.ByInstance[inst.ID], fresh.ByInstance[inst.ID]
		if (e == nil) != (f == nil) || (e != nil && e.UI.Signature() != f.UI.Signature()) {
			t.Fatalf("%s: %s bound to %v, fresh %v", label, inst.Name, sigOf(e), sigOf(f))
		}
	}
	if len(eco.Unique) != len(fresh.Unique) {
		t.Fatalf("%s: %d classes, fresh %d", label, len(eco.Unique), len(fresh.Unique))
	}
	for i, ua := range eco.Unique {
		ids := func(ua *pao.UniqueAccess) []int {
			var out []int
			for _, m := range ua.UI.Insts {
				out = append(out, m.ID)
			}
			return out
		}
		if got, want := ids(ua), ids(fresh.Unique[i]); !slices.Equal(got, want) {
			t.Fatalf("%s: class %s members %v, fresh %v", label, ua.UI.Signature(), got, want)
		}
		for _, m := range ua.UI.Insts {
			if eco.ByInstance[m.ID] != ua {
				t.Fatalf("%s: %s is listed by class %s but bound to another object", label, m.Name, ua.UI.Signature())
			}
		}
	}
}

func sigOf(ua *pao.UniqueAccess) string {
	if ua == nil {
		return "<none>"
	}
	return ua.UI.Signature()
}

// TestECOFuzzDifferential is the ECO equivalence gate: for each testcase and
// seed, chained pseudo-random ECO scripts applied through one resident
// session must produce a result byte-identical to a fresh full analysis of
// the mutated twin, with the same class membership and instance bindings —
// with the via cache on and with it off. Some round of each testcase must
// change FailedPins, so the incremental failed-pin recount is covered.
func TestECOFuzzDifferential(t *testing.T) {
	specs := []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[3].Scale(0.004).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
	}
	const seeds, rounds, opsPerRound = 4, 3, 6
	for si, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			failedMoved := false
			for k := 0; k < seeds; k++ {
				seed := int64(1000 + si + 10*k)
				failedMoved = ecoFuzzChain(t, spec, seed, rounds, opsPerRound) || failedMoved
			}
			if !failedMoved {
				t.Fatal("no round changed FailedPins; the failed-pin recount went unexercised")
			}
		})
	}
}

// ecoFuzzChain runs one seeded chain of ECO rounds for TestECOFuzzDifferential
// and reports whether some round changed FailedPins.
func ecoFuzzChain(t *testing.T, spec suite.Spec, seed int64, rounds, opsPerRound int) bool {
	t.Helper()
	gen := func() *db.Design {
		d, err := suite.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d, twin, dOff := gen(), gen(), gen()
	cfg := pao.DefaultConfig()
	off := cfg
	off.NoCache = true

	ac := pao.NewAnalyzer(d, cfg)
	sess := pao.NewECOSession(ac, ac.Run())
	acOff := pao.NewAnalyzer(dOff, off)
	sessOff := pao.NewECOSession(acOff, acOff.Run())

	rng := rand.New(rand.NewSource(seed))
	prevFailed, failedMoved := sess.Result().Stats.FailedPins, false
	for round := 0; round < rounds; round++ {
		label := fmt.Sprintf("seed %d round %d", seed, round)
		ops := genECOScript(d, rng, opsPerRound, round)
		res, _, err := sess.Apply(ops)
		if err != nil {
			t.Fatalf("%s: eco apply: %v", label, err)
		}
		failedMoved = failedMoved || res.Stats.FailedPins != prevFailed
		prevFailed = res.Stats.FailedPins
		resOff, _, err := sessOff.Apply(ops)
		if err != nil {
			t.Fatalf("%s: cache-off eco apply: %v", label, err)
		}
		if err := pao.ApplyOpsToDesign(twin, ops); err != nil {
			t.Fatalf("%s: twin apply: %v", label, err)
		}
		if h1, h2 := pao.DesignHash(d), pao.DesignHash(twin); h1 != h2 {
			t.Fatalf("%s: twin diverged from ECO'd design: %s vs %s", label, h1, h2)
		}
		if h := sess.DesignHash(); h != pao.DesignHash(d) {
			t.Fatalf("%s: session DesignHash %s, want %s", label, h, pao.DesignHash(d))
		}
		fresh := pao.NewAnalyzer(twin, cfg).Run()

		be := snapshotBytes(t, d, cfg, res)
		bf := snapshotBytes(t, twin, cfg, fresh)
		if !bytes.Equal(be, bf) {
			t.Fatalf("%s: ECO snapshot (%d bytes) != fresh snapshot (%d bytes)", label, len(be), len(bf))
		}
		// Cache-off ECO must agree too, byte for byte: NoCache is not part of
		// the config fingerprint.
		bo := snapshotBytes(t, dOff, off, resOff)
		if !bytes.Equal(be, bo) {
			t.Fatalf("%s: cache-on ECO snapshot (%d bytes) != cache-off (%d bytes)", label, len(be), len(bo))
		}
		sameMembership(t, label+" cache on", d, res, fresh)
		sameMembership(t, label+" cache off", dOff, resOff, fresh)
	}
	if ac.DRC.CacheHits.Load()+ac.DRC.CacheMisses.Load() == 0 {
		t.Fatalf("seed %d: via cache was not exercised; the cache-on/off comparison is vacuous", seed)
	}
	return failedMoved
}

// TestECOSiteMoveMatchesFresh: an ECO move by an integral placement-site
// offset within the same row keeps the instance's track signature, so the
// session rebinds the moved instances to their existing classes. The result
// must still equal a fresh analysis of the moved design: per-term
// access-point sets, failed-pin count and snapshot bytes.
func TestECOSiteMoveMatchesFresh(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	d, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Three spread instances, each moved by one M2 pitch (an integral number
	// of placement sites) within its own row.
	idx := []int{0, len(d.Instances) / 2, len(d.Instances) - 1}
	const dx = 140
	var ops []pao.ECOOp
	for _, i := range idx {
		inst := d.Instances[i]
		ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: geom.Pt(inst.Pos.X+dx, inst.Pos.Y)})
	}

	cfg := pao.DefaultConfig()
	a := pao.NewAnalyzer(d, cfg)
	sess := pao.NewECOSession(a, a.Run())
	res, rep, err := sess.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		inst := d.Instances[i]
		ua := res.ByInstance[inst.ID]
		if ua == nil || ua.UI.Signature() != d.InstanceSignature(inst) {
			t.Fatalf("site move changed the class binding of %s; the premise is broken", inst.Name)
		}
	}
	if rep.NewClasses != 0 {
		t.Fatalf("site moves created %d classes, want 0", rep.NewClasses)
	}

	if err := pao.ApplyOpsToDesign(twin, ops); err != nil {
		t.Fatal(err)
	}
	fresh := pao.NewAnalyzer(twin, cfg).Run()
	if g, w := res.Stats.FailedPins, fresh.Stats.FailedPins; g != w {
		t.Errorf("failed pins: eco %d, fresh %d", g, w)
	}
	id := func(k apKey) apKey { return k }
	sameAPSets(t, "eco-vs-fresh", termAPs(d, res, id), termAPs(twin, fresh, id))
	if !bytes.Equal(snapshotBytes(t, d, cfg, res), snapshotBytes(t, twin, cfg, fresh)) {
		t.Error("site-move ECO snapshot differs from the fresh analysis")
	}
}

// TestECORevertRestoresResult: applying a script of moves and swaps and then
// its inverse must restore the result to the original bytes — and must have
// left the original Result object untouched (the merge is copy-on-write).
func TestECORevertRestoresResult(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	d, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pao.DefaultConfig()
	a := pao.NewAnalyzer(d, cfg)
	res0 := a.Run()
	want := snapshotBytes(t, d, cfg, res0)

	n := len(d.Instances)
	i0, i1, i2 := d.Instances[0], d.Instances[n/3], d.Instances[2*n/3]
	p0 := i0.Pos
	ops := []pao.ECOOp{
		{Kind: pao.ECOMove, Inst: i0.Name, To: geom.Pt(p0.X+700, p0.Y)},
		{Kind: pao.ECOSwap, Inst: i1.Name, Other: i2.Name},
	}
	inverse := []pao.ECOOp{
		{Kind: pao.ECOSwap, Inst: i1.Name, Other: i2.Name},
		{Kind: pao.ECOMove, Inst: i0.Name, To: p0},
	}

	sess := pao.NewECOSession(a, res0)
	if _, _, err := sess.Apply(ops); err != nil {
		t.Fatal(err)
	}
	res2, _, err := sess.Apply(inverse)
	if err != nil {
		t.Fatal(err)
	}

	if got := snapshotBytes(t, d, cfg, res2); !bytes.Equal(got, want) {
		t.Fatalf("apply+revert snapshot (%d bytes) != original (%d bytes)", len(got), len(want))
	}
	// The original Result must encode to the same bytes as before the ECOs:
	// the merge never mutates the result it started from.
	if again := snapshotBytes(t, d, cfg, res0); !bytes.Equal(again, want) {
		t.Fatal("the ECO session mutated the pre-ECO Result in place")
	}
}

// TestECOOrderIndependenceDisjointOps: two ops whose dirty halos are disjoint
// must commute — applying them in either order yields byte-identical results.
func TestECOOrderIndependenceDisjointOps(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	d1, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := suite.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The instances at the extreme corners of the placement are far beyond
	// any DRC halo of each other.
	lo, hi := d1.Instances[0], d1.Instances[0]
	for _, inst := range d1.Instances {
		if inst.Pos.X+inst.Pos.Y < lo.Pos.X+lo.Pos.Y {
			lo = inst
		}
		if inst.Pos.X+inst.Pos.Y > hi.Pos.X+hi.Pos.Y {
			hi = inst
		}
	}
	if lo == hi {
		t.Fatal("degenerate placement")
	}
	opLo := pao.ECOOp{Kind: pao.ECOMove, Inst: lo.Name, To: geom.Pt(lo.Pos.X+140, lo.Pos.Y)}
	opHi := pao.ECOOp{Kind: pao.ECOMove, Inst: hi.Name, To: geom.Pt(hi.Pos.X+140, hi.Pos.Y)}

	cfg := pao.DefaultConfig()
	a1 := pao.NewAnalyzer(d1, cfg)
	s1 := pao.NewECOSession(a1, a1.Run())
	r1, _, err := s1.Apply([]pao.ECOOp{opLo, opHi})
	if err != nil {
		t.Fatal(err)
	}
	a2 := pao.NewAnalyzer(d2, cfg)
	s2 := pao.NewECOSession(a2, a2.Run())
	r2, _, err := s2.Apply([]pao.ECOOp{opHi, opLo})
	if err != nil {
		t.Fatal(err)
	}

	b1 := snapshotBytes(t, d1, cfg, r1)
	b2 := snapshotBytes(t, d2, cfg, r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("disjoint ops do not commute: %d bytes vs %d bytes", len(b1), len(b2))
	}
}
