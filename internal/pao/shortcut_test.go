package pao

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/suite"
	"repro/internal/tech"
)

// shortcutAudit records what the Step-3 shortcut skipped and re-derives, for
// every skipped via, what the lookup it replaced would have answered.
type shortcutAudit struct {
	mu      sync.Mutex
	skipped int
	insts   map[int]bool // instance IDs with a skipped via
	bad     []string
}

// audit is the Analyzer.shortcutAudit hook. A skip is exact when the full,
// uncached check of the via in the engine's fixed shapes finds no violation,
// and the via-cache lookup the shortcut replaced — with a signature built
// from the index, not the focus — would have been a hit on an entry of
// verdict 0: the signature is one the cache already holds, the cell-context
// signature Step 1 validated, so skipping it moves no check or miss counter
// either. Both read a via-blind context, as Step 3 does: an ECO session's
// engine also holds the failed-pin ledger's vias.
func (s *shortcutAudit) audit(eng *drc.Engine, inst *db.Instance, b *chosenAP) {
	v := b.ap.Primary()
	pinRects := appendPinRects(nil, inst, b.pin, b.ap.Layer)
	full := eng.CheckViaCtx(v, b.pos, b.net, pinRects, eng.NewFixedQueryCtx())
	verdict, hit := eng.CheckViaVerdictProvCtx(v, b.pos, b.net, pinRects, eng.NewFixedQueryCtx())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skipped++
	s.insts[inst.ID] = true
	if len(full) != 0 || verdict != 0 || !hit {
		s.bad = append(s.bad, fmt.Sprintf("%s: %s at %v: full check %v, lookup verdict %d hit %v",
			inst.Name, v.Name, b.pos, full, verdict, hit))
	}
}

// audited runs fn with a's shortcut audited and returns the audit.
func audited(t *testing.T, a *Analyzer, fn func()) *shortcutAudit {
	t.Helper()
	s := &shortcutAudit{insts: make(map[int]bool)}
	a.shortcutAudit = s.audit
	fn()
	for i, msg := range s.bad {
		if i == 10 {
			t.Errorf("... %d more", len(s.bad)-i)
			break
		}
		t.Errorf("inexact Step-3 shortcut: %s", msg)
	}
	return s
}

// runAudited runs a with the shortcut audited and returns the audit.
func runAudited(t *testing.T, a *Analyzer) *shortcutAudit {
	t.Helper()
	return audited(t, a, func() { a.Run() })
}

// TestStep3ShortcutExact audits the Step-3 shortcut (priceAPs): every via it
// prices at its Step-1 verdict without a lookup must have a clean full
// check and a lookup that would have hit a verdict-0 entry. It runs on
// pao_test1, aes_14nm and the multi-height case at test scale; on the ECO
// commits of a session, whose engine holds the ledger's vias while Step 3
// reads it; and on three designs built to defeat one guard each: an
// instance with two signal pins on one net, an IO pin abutting an
// instance's pin, and a global engine with a FaultHook that injects a
// violation into every via check.
func TestStep3ShortcutExact(t *testing.T) {
	for _, spec := range []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
		suite.MultiHeight.Scale(0.02).WithSeed(7),
	} {
		d, err := suite.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := runAudited(t, NewAnalyzer(d, DefaultConfig()))
		if s.skipped == 0 {
			t.Errorf("%s: the shortcut skipped no lookup", spec.Name)
		}
		t.Logf("%s: %d vias priced without a lookup", spec.Name, s.skipped)
	}

	t.Run("ECO commits", func(t *testing.T) {
		d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		a := NewAnalyzer(d, DefaultConfig())
		sess := NewECOSession(a, a.Run())
		rng := rand.New(rand.NewSource(2000))
		s := audited(t, a, func() {
			for round := 0; round < 6; round++ {
				if _, _, err := sess.Apply(recountScript(d, rng, 4, round)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
		if s.skipped == 0 {
			t.Error("no commit priced a via without a lookup")
		}
		t.Logf("%d vias priced without a lookup in commits", s.skipped)
	})

	t.Run("shared net", func(t *testing.T) {
		d := scratchDesign(t)
		inst := shareNet(t, d)
		s := runAudited(t, NewAnalyzer(d, DefaultConfig()))
		if s.insts[inst.ID] {
			t.Errorf("%s has two signal pins on one net, yet a via of it skipped its lookup", inst.Name)
		}
	})

	t.Run("abutting IO pin", func(t *testing.T) {
		d := scratchDesign(t)
		abutIOPin(t, d)
		runAudited(t, NewAnalyzer(d, DefaultConfig()))
	})

	t.Run("fault hook", func(t *testing.T) {
		a := NewAnalyzer(scratchDesign(t), DefaultConfig())
		a.DRCFaultHook = func(site, detail string) []drc.Violation {
			if detail != "global" {
				return nil
			}
			return []drc.Violation{{Rule: "Injected", Layer: "M1"}}
		}
		if s := runAudited(t, a); s.skipped != 0 {
			t.Errorf("the shortcut skipped %d lookups on an engine with a FaultHook", s.skipped)
		}
	})
}

// clusterMember returns a CORE instance of a multi-member row cluster with
// at least two signal pins.
func clusterMember(t *testing.T, d *db.Design) *db.Instance {
	t.Helper()
	for _, cl := range d.Clusters() {
		if len(cl.Insts) < 2 {
			continue
		}
		for _, inst := range cl.Insts {
			if len(inst.Master.SignalPins()) >= 2 {
				return inst
			}
		}
	}
	t.Fatal("design has no multi-pin instance in a multi-member cluster")
	return nil
}

// shareNet moves one instance's second signal pin onto the net of its
// first, so two signal pins of the instance share a net, and returns it.
func shareNet(t *testing.T, d *db.Design) *db.Instance {
	t.Helper()
	inst := clusterMember(t, d)
	pins := inst.Master.SignalPins()
	// Drop both pins from their nets, then put them on one new net.
	for _, net := range d.Nets {
		terms := net.Terms[:0]
		for _, tm := range net.Terms {
			if tm.Inst != inst || (tm.Pin != pins[0] && tm.Pin != pins[1]) {
				terms = append(terms, tm)
			}
		}
		net.Terms = terms
	}
	d.Nets = append(d.Nets, &db.Net{Name: "shared", Terms: []db.Term{{Inst: inst, Pin: pins[0]}, {Inst: inst, Pin: pins[1]}}})
	return inst
}

// abutIOPin adds, on no net, an IO pin abutting the right edge of one
// instance's first signal pin shape.
func abutIOPin(t *testing.T, d *db.Design) {
	t.Helper()
	inst := clusterMember(t, d)
	s := inst.PinShapes(inst.Master.SignalPins()[0])[0]
	d.IOPins = append(d.IOPins, &db.IOPin{Name: "abut", Dir: db.DirInput,
		Shape: db.Shape{Layer: s.Layer, Rect: geom.R(s.Rect.XH, s.Rect.YL, s.Rect.XH+70, s.Rect.YL+70)}})
}

// ledgerAudit records the via terminals the failed-pin check kept clean
// without a lookup (checkInstance) and re-checks each one: a skip is exact
// when the full, uncached check of the via through a plain context, which
// sees every placed via, finds no violation.
type ledgerAudit struct {
	mu      sync.Mutex
	skipped int
	byVia   map[*tech.ViaDef]int // skipped terminals per via definition
	terms   map[termName]bool    // the skipped terminals
	bad     []string
}

// audit is the Analyzer.ledgerAudit hook.
func (s *ledgerAudit) audit(eng *drc.Engine, tm *pinTerm) {
	pinRects := appendPinRects(nil, tm.inst, tm.pin, int(tm.layer))
	full := eng.CheckViaCtx(tm.via, tm.pos, int(tm.net), pinRects, eng.NewQueryCtx())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skipped++
	s.byVia[tm.via]++
	s.terms[termName{tm.inst.Name, tm.pin.Name}] = true
	if len(full) != 0 {
		s.bad = append(s.bad, fmt.Sprintf("%s/%s: %s at %v: full check %v", tm.inst.Name, tm.pin.Name, tm.via.Name, tm.pos, full))
	}
}

// multiCut counts the skipped terminals whose via has more than one cut.
func (s *ledgerAudit) multiCut() int {
	n := 0
	for v, k := range s.byVia {
		if len(v.Cuts) > 1 {
			n += k
		}
	}
	return n
}

// ledgerAudited runs fn with a's failed-pin shortcut audited and returns the
// audit.
func ledgerAudited(t *testing.T, a *Analyzer, fn func()) *ledgerAudit {
	t.Helper()
	s := &ledgerAudit{byVia: make(map[*tech.ViaDef]int), terms: make(map[termName]bool)}
	a.ledgerAudit = s.audit
	defer func() { a.ledgerAudit = nil }()
	fn()
	for i, msg := range s.bad {
		if i == 10 {
			t.Errorf("... %d more", len(s.bad)-i)
			break
		}
		t.Errorf("inexact failed-pin shortcut: %s", msg)
	}
	return s
}

// viaTerms counts the net terminals of res that place a via.
func viaTerms(a *Analyzer, res *Result) int {
	l, _ := a.resolveLedger(context.Background(), res)
	n := 0
	for i := range l.terms {
		if l.terms[i].hasVia() {
			n++
		}
	}
	return n
}

// ledgerRun resolves res's ledger, lets edit change it, and checks it on a
// new global engine with its first-object table, as RunContext does, under
// an audit.
func ledgerRun(t *testing.T, a *Analyzer, res *Result, edit func(l *pinLedger)) (*pinLedger, *ledgerAudit) {
	t.Helper()
	var l pinLedger
	s := ledgerAudited(t, a, func() {
		var objs int
		l, objs = a.resolveLedger(context.Background(), res)
		edit(&l)
		objs = 0
		for i := range l.terms {
			if tm := &l.terms[i]; tm.hasVia() {
				objs += viaObjs(tm.via)
			}
		}
		eng, firsts := a.globalEngine(objs)
		a.checkLedger(context.Background(), &l, eng, firsts, objs, a.queryCtxs())
	})
	return &l, s
}

// doubleCutFirst adds the two-cut via variants to t and moves them ahead of
// the single-cut ones, so that Step 1 makes one the primary wherever it
// drops clean.
func doubleCutFirst(t *testing.T, tt *tech.Technology) {
	t.Helper()
	if err := tech.AddDoubleCutVias(tt); err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(tt.Vias, func(x, y *tech.ViaDef) int { return cmp.Compare(len(y.Cuts), len(x.Cuts)) })
}

// TestLedgerShortcutExact audits the failed-pin check's shortcut
// (checkInstance): every via terminal it keeps clean without a lookup must
// have a clean full, uncached check with every via placed. It runs on
// pao_test1, pao_test4, aes_14nm and the multi-height case at test scale,
// each also with two-cut vias as the primaries wherever they drop clean;
// on fresh ECO sessions built after five rounds of commits, which carry
// failing terminals, against the uncached reference; and on cases built to
// defeat one guard each: an instance with two signal pins on one net (no
// guard needed: its vias still skip), an IO pin abutting a via that skips
// without it, CountFailedPins (no first-object table), a global engine with
// a FaultHook, a sibling via moved onto a via that skips without it, and a
// two-cut via whose own cuts break cut spacing.
func TestLedgerShortcutExact(t *testing.T) {
	for _, spec := range []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[0].Scale(0.05).WithSeed(7),
		suite.Testcases[3].Scale(0.04).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
		suite.MultiHeight.Scale(0.02).WithSeed(7),
	} {
		for _, double := range []bool{false, true} {
			name := spec.Name
			if double {
				name += "_double_cut"
			}
			t.Run(name, func(t *testing.T) {
				d, err := suite.Generate(spec)
				if err != nil {
					t.Fatal(err)
				}
				if double {
					doubleCutFirst(t, d.Tech)
				}
				a := NewAnalyzer(d, DefaultConfig())
				var res *Result
				s := ledgerAudited(t, a, func() { res = a.Run() })
				n := viaTerms(a, res)
				t.Logf("%d of %d via terminals kept clean without a lookup (%d with two cuts); %d of %d pins fail",
					s.skipped, n, s.multiCut(), res.Stats.FailedPins, res.Stats.TotalPins)
				if s.skipped == 0 {
					t.Error("the shortcut skipped no lookup")
				}
				if double && s.multiCut() == 0 {
					t.Error("no two-cut via skipped its lookup")
				}
			})
		}
	}

	t.Run("ECO sessions", func(t *testing.T) {
		for si, spec := range []suite.Spec{
			suite.Testcases[0].Scale(0.01).WithSeed(7),
			suite.AES14.Scale(0.01).WithSeed(7),
		} {
			d, err := suite.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer(d, DefaultConfig())
			sess := NewECOSession(a, a.Run())
			rng := rand.New(rand.NewSource(int64(3000 + si)))
			for round := 0; round < 5; round++ {
				if _, _, err := sess.Apply(recountScript(d, rng, 4, round)); err != nil {
					t.Fatalf("%s: round %d: %v", spec.Name, round, err)
				}
			}
			var fresh *ECOSession
			s := ledgerAudited(t, a, func() { fresh = NewECOSession(a, sess.Result()) })
			want, _ := freshFailing(t, d)
			if got := sessionFailing(fresh); !maps.Equal(got, want) {
				t.Errorf("%s: a fresh session fails %v, the uncached reference %v", spec.Name, got, want)
			}
			t.Logf("%s: %d via terminals kept clean without a lookup; %d terminals fail", spec.Name, s.skipped, fresh.failing)
			if fresh.failing == 0 || s.skipped == 0 {
				t.Errorf("%s: %d failing terminals, %d skipped lookups; want both above 0", spec.Name, fresh.failing, s.skipped)
			}
		}
	})

	t.Run("shared net", func(t *testing.T) {
		d := scratchDesign(t)
		inst := shareNet(t, d)
		a := NewAnalyzer(d, DefaultConfig())
		s := ledgerAudited(t, a, func() { a.Run() })
		skipped := 0
		for _, pin := range inst.Master.SignalPins()[:2] {
			if s.terms[termName{inst.Name, pin.Name}] {
				skipped++
			}
		}
		if skipped == 0 {
			t.Errorf("%s has two signal pins on one net, and neither via skipped its lookup", inst.Name)
		}
	})

	// skippedPair runs a control check of d and returns an instance whose
	// first via terminal skipped its lookup, that terminal's ledger index and
	// another via terminal of the instance.
	skippedPair := func(t *testing.T, a *Analyzer, res *Result) (*db.Instance, int32, int32) {
		t.Helper()
		l, s := ledgerRun(t, a, res, func(*pinLedger) {})
		for _, inst := range a.Design.Instances {
			lo, hi := l.run(inst.ID)
			var vias []int32
			for i := lo; i < hi; i++ {
				if l.terms[i].hasVia() {
					vias = append(vias, i)
				}
			}
			if len(vias) >= 2 && s.terms[termName{inst.Name, l.terms[vias[0]].pin.Name}] {
				return inst, vias[0], vias[1]
			}
		}
		t.Fatal("no instance with two via terminals has a first one that skipped its lookup")
		return nil, 0, 0
	}

	t.Run("abutting IO pin", func(t *testing.T) {
		d := scratchDesign(t)
		a := NewAnalyzer(d, DefaultConfig())
		res := a.Run()
		inst, i, _ := skippedPair(t, a, res)
		l, _ := a.resolveLedger(context.Background(), res)
		tm := &l.terms[i]
		bot := tm.via.BotRect(tm.pos)
		d.IOPins = append(d.IOPins, &db.IOPin{Name: "abut", Dir: db.DirInput,
			Shape: db.Shape{Layer: tm.via.CutBelow, Rect: geom.R(bot.XH, bot.YL, bot.XH+70, bot.YL+70)}})
		got, s := ledgerRun(t, a, res, func(*pinLedger) {})
		if s.terms[termName{inst.Name, tm.pin.Name}] {
			t.Errorf("%s/%s: an IO pin abuts its via, yet it skipped its lookup", inst.Name, tm.pin.Name)
		}
		if !got.terms[i].failed {
			t.Errorf("%s/%s: an IO pin on no net abuts its via, yet it does not fail", inst.Name, tm.pin.Name)
		}
	})

	t.Run("CountFailedPins", func(t *testing.T) {
		a := NewAnalyzer(scratchDesign(t), DefaultConfig())
		res := a.Run()
		if s := ledgerAudited(t, a, func() { a.CountFailedPins(res, a.GlobalEngine()) }); s.skipped != 0 {
			t.Errorf("CountFailedPins skipped %d lookups; the results it recounts need not carry Step-1 verdicts", s.skipped)
		}
	})

	t.Run("fault hook", func(t *testing.T) {
		a := NewAnalyzer(scratchDesign(t), DefaultConfig())
		a.DRCFaultHook = func(site, detail string) []drc.Violation {
			if detail != "global" {
				return nil
			}
			return []drc.Violation{{Rule: "Injected", Layer: "M1"}}
		}
		if s := ledgerAudited(t, a, func() { a.Run() }); s.skipped != 0 {
			t.Errorf("the shortcut skipped %d lookups on an engine with a FaultHook", s.skipped)
		}
	})

	t.Run("sibling pair", func(t *testing.T) {
		d := scratchDesign(t)
		a := NewAnalyzer(d, DefaultConfig())
		res := a.Run()
		inst, i, j := skippedPair(t, a, res)
		// Move the sibling's via onto the skipped one, one unit over: the
		// two overlap, which ViaPairClean rejects.
		l, s := ledgerRun(t, a, res, func(l *pinLedger) {
			l.terms[j].via, l.terms[j].pos = l.terms[i].via, l.terms[i].pos.Add(geom.Pt(1, 0))
		})
		if s.terms[termName{inst.Name, l.terms[i].pin.Name}] {
			t.Errorf("%s/%s: a sibling via overlaps it, yet it skipped its lookup", inst.Name, l.terms[i].pin.Name)
		}
		if !l.terms[i].failed {
			t.Errorf("%s/%s: a sibling via overlaps it, yet it does not fail", inst.Name, l.terms[i].pin.Name)
		}
	})

	t.Run("own cuts", func(t *testing.T) {
		d := scratchDesign(t)
		tt := d.Tech
		if err := tech.AddDoubleCutVias(tt); err != nil {
			t.Fatal(err)
		}
		// VIA1_D with its two cuts pulled together to half the cut spacing:
		// Step 1 never places the via it checks, so it finds the via clean
		// wherever VIA1_D is; placed, its cuts break cut spacing.
		dc := tt.ViaByName("VIA1_D")
		tight := *dc
		tight.Name = "VIA1_TIGHT"
		q := tt.Cut(1).Spacing / 4
		c1, c2 := dc.Cuts[0], dc.Cuts[1]
		pull := geom.Pt(sign(c2.XL-c1.XL)*q, sign(c2.YL-c1.YL)*q)
		tight.Cuts = []geom.Rect{c1.Shift(pull), c2.Shift(geom.Pt(-pull.X, -pull.Y))}
		if drc.CutPairClean(tt.Cut(1), tight.Cuts[0], tight.Cuts[1]) {
			t.Fatalf("VIA1_TIGHT's cuts %v are clean", tight.Cuts)
		}
		tt.Vias = append([]*tech.ViaDef{&tight}, tt.Vias...)
		a := NewAnalyzer(d, DefaultConfig())
		var res *Result
		s := ledgerAudited(t, a, func() { res = a.Run() })
		l, _ := a.resolveLedger(context.Background(), res)
		placed := 0
		for k := range l.terms {
			if l.terms[k].hasVia() && l.terms[k].via.Name == tight.Name {
				placed++
			}
		}
		if placed == 0 {
			t.Fatal("no terminal's primary via is VIA1_TIGHT")
		}
		if n := s.byVia[tt.Vias[0]]; n != 0 {
			t.Errorf("%d of %d VIA1_TIGHT terminals skipped their lookup", n, placed)
		}
		if res.Stats.FailedPins < placed {
			t.Errorf("%d pins fail, fewer than the %d VIA1_TIGHT terminals", res.Stats.FailedPins, placed)
		}
	})
}

// sign is -1, 0 or 1 by the sign of x.
func sign(x int64) int64 { return int64(cmp.Compare(x, 0)) }
