package pao

import (
	"bytes"
	"context"
	"testing"
	"unsafe"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/suite"
)

func scratchDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.02).WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCellScratchRefillAllocFree: once warm, a worker's scratch cell engine
// is Reset, refilled with another class's shapes and compacted without
// allocating.
func TestCellScratchRefillAllocFree(t *testing.T) {
	d := scratchDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	uis := d.UniqueInstances()
	x, y := uis[0], (*db.UniqueInstance)(nil)
	for _, ui := range uis[1:] {
		if numShapes(ui.Pivot().Master) != numShapes(x.Pivot().Master) {
			y = ui
			break
		}
	}
	if y == nil {
		t.Fatal("design has no two classes with different shape counts")
	}
	sc := a.newCellScratch()
	a.fill(sc, x)
	a.fill(sc, y)
	i := 0
	n := testing.AllocsPerRun(50, func() {
		i++
		if i%2 == 0 {
			a.fill(sc, x)
		} else {
			a.fill(sc, y)
		}
	})
	if n != 0 {
		t.Fatalf("refilling a warm scratch cell engine allocates %v times, want 0", n)
	}
}

// TestSelectForClusterAllocFree: once warm, a worker's Step-3 scratch runs
// one cluster's DP without allocating, and its picks are the run's. It runs
// on two engines: one with its first-object table, as RunContext builds it,
// so the focus and the own-cell shortcut run; and GlobalEngine's, with no
// table, as SelectPatterns and SelectClusters (the dist worker) run it, so
// every via takes the focused lookup.
func TestSelectForClusterAllocFree(t *testing.T) {
	d := scratchDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	var cl db.Cluster
	most := 0
	for _, c := range d.Clusters() {
		n := 0
		for _, inst := range c.Insts {
			if ua := res.ByInstance[inst.ID]; ua != nil && len(ua.Patterns) > 1 {
				n++
			}
		}
		if n > most {
			cl, most = c, n
		}
	}
	if most < 2 {
		t.Fatal("design has no cluster with two multi-pattern members")
	}
	located, firsts := a.globalEngine(0)
	for _, c := range []struct {
		name   string
		eng    *drc.Engine
		firsts []int32
	}{
		{"first-object table", located, firsts},
		{"no table", a.GlobalEngine(), nil},
	} {
		qc := c.eng.NewQueryCtx()
		var dp dpScratch
		picks := a.selectForCluster(res, c.eng, c.firsts, cl, qc, &dp)
		if len(picks) < most {
			t.Fatalf("%s: %d picks for %d members with patterns", c.name, len(picks), most)
		}
		for _, p := range picks {
			if res.Selected[p.id] != p.pattern {
				t.Fatalf("%s: instance %d: picked pattern %d, the run selected %d", c.name, p.id, p.pattern, res.Selected[p.id])
			}
		}
		if n := testing.AllocsPerRun(20, func() { a.selectForCluster(res, c.eng, c.firsts, cl, qc, &dp) }); n != 0 {
			t.Fatalf("%s: a warm Step-3 cluster DP allocates %v times, want 0", c.name, n)
		}
	}
}

// TestLedgerInstanceAllocFree: once warm, the failed-pin check of one
// instance — the focus gather, the shortcut for one via and the focused,
// cached lookup for another — allocates nothing.
func TestLedgerInstanceAllocFree(t *testing.T) {
	d := scratchDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	res := a.Run()
	l, objs := a.resolveLedger(context.Background(), res)
	eng, firsts := a.globalEngine(objs)
	s := ledgerAudited(t, a, func() { a.checkLedger(context.Background(), &l, eng, firsts, objs, a.queryCtxs()) })
	id := -1
	for _, inst := range d.Instances {
		lo, hi := l.run(inst.ID)
		skip, lookup := false, false
		for i := lo; i < hi; i++ {
			if tm := &l.terms[i]; tm.hasVia() {
				if s.terms[termName{inst.Name, tm.pin.Name}] {
					skip = true
				} else {
					lookup = true
				}
			}
		}
		if skip && lookup {
			id = inst.ID
			break
		}
	}
	if id < 0 {
		t.Fatal("no instance has both a via that skipped its lookup and one that took it")
	}
	lo, hi := l.run(id)
	qc := eng.NewQueryCtx()
	var held []bool
	want := a.checkInstance(eng, firsts, l.terms[lo:hi], qc, &held)
	if n := testing.AllocsPerRun(50, func() {
		if a.checkInstance(eng, firsts, l.terms[lo:hi], qc, &held) != want {
			t.Fatal("the instance's failing count changed")
		}
	}); n != 0 {
		t.Fatalf("a warm per-instance failed-pin check allocates %v times, want 0", n)
	}
}

// TestLedgerEntrySize pins the failed-pin ledger's per-terminal entry at 56
// bytes: an aes_14nm analysis builds 57,774 of them, and an ECO session
// keeps them.
func TestLedgerEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(pinTerm{}); n != 56 {
		t.Fatalf("pinTerm is %d bytes, want 56", n)
	}
}

// TestNetOfAllocFree: NetOf is a read-only index.
func TestNetOfAllocFree(t *testing.T) {
	d := scratchDesign(t)
	a := NewAnalyzer(d, DefaultConfig())
	n := testing.AllocsPerRun(10, func() {
		for _, inst := range d.Instances {
			for _, pin := range inst.Master.Pins {
				a.NetOf(inst, pin)
			}
		}
	})
	if n != 0 {
		t.Fatalf("NetOf over every instance pin allocates %v times, want 0", n)
	}
}

// TestNetOfMatchesLazyNumbering pins the eager net numbering to the lazy map
// it replaced, which numbered a pin on no net the first time NetOf saw it:
// nets first, then the global engine build's signal and clock pins in
// instance and pin order, then any other pin. The analysis snapshot is
// byte-identical at one and four workers.
func TestNetOfMatchesLazyNumbering(t *testing.T) {
	d := scratchDesign(t)
	// Disconnect one signal terminal so the design has a pin on no net.
	for _, net := range d.Nets {
		if len(net.Terms) > 1 {
			net.Terms = net.Terms[1:]
			break
		}
	}
	type key struct {
		inst int
		pin  string
	}
	lazy := make(map[key]int)
	for idx, net := range d.Nets {
		for _, t := range net.Terms {
			lazy[key{t.Inst.ID, t.Pin.Name}] = idx + 1
		}
	}
	next := len(d.Nets) + 1
	netOf := func(inst *db.Instance, pin *db.MPin) int {
		k := key{inst.ID, pin.Name}
		if n, ok := lazy[k]; ok {
			return n
		}
		lazy[k] = next
		next++
		return lazy[k]
	}
	unconnected := 0
	for _, inst := range d.Instances {
		for _, pin := range inst.Master.Pins {
			if isSignal(pin) && netOf(inst, pin) > len(d.Nets) {
				unconnected++
			}
		}
	}
	if unconnected == 0 {
		t.Fatal("design has no signal pin on no net")
	}
	a := NewAnalyzer(d, DefaultConfig())
	for _, inst := range d.Instances {
		for _, pin := range inst.Master.Pins {
			if got, want := a.NetOf(inst, pin), netOf(inst, pin); got != want {
				t.Fatalf("%s/%s: NetOf = %d, the lazy map gave %d", inst.Name, pin.Name, got, want)
			}
		}
	}

	var snaps [][]byte
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		res := NewAnalyzer(d, cfg).Run()
		if !res.Health.OK() {
			t.Fatalf("workers=%d: %v", workers, res.Health)
		}
		snaps = append(snaps, EncodeCounts(t, d, cfg, res))
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshots differ between 1 and 4 workers (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
}
