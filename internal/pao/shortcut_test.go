package pao

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/suite"
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
