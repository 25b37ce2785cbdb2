package pao

import (
	"context"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/suite"
	"repro/internal/tech"
)

// TestStep1MatchesReference re-decides every candidate the Explain audit
// lists, for every signal pin of every class, with a reference that runs
// every check: the uncached report-path CheckVia of each via variant and
// CheckMetalRect of all four planar stubs, then the accept rule. Step 1
// itself looks the vias up first and, under RequireVia, rejects a core-cell
// candidate without a clean via before its stubs; the verdict, the reject
// reason and the via verdicts must equal the reference's, and the audit's
// accepted candidates must be the live RunContext result's access points of
// the pin, in order, with the same position, layer, types, vias and
// directions. It runs on pao_test1, pao_test4 (jittered rows), aes_14nm and
// the multi-height case at test scale; on a macro pin, whose candidates get
// their stubs with or without a clean via; and on pao_test1 with RequireVia
// off, where a core-cell candidate without a clean via is still decided by
// its stubs.
func TestStep1MatchesReference(t *testing.T) {
	noVia := DefaultConfig()
	noVia.RequireVia = false
	for _, c := range []struct {
		name string
		spec suite.Spec
		cfg  Config
	}{
		{"pao_test1", suite.Testcases[0].Scale(0.01).WithSeed(7), DefaultConfig()},
		{"pao_test4", suite.Testcases[3].Scale(0.04).WithSeed(7), DefaultConfig()},
		{"aes_14nm", suite.AES14.Scale(0.01).WithSeed(7), DefaultConfig()},
		{"pao_mh", suite.MultiHeight.Scale(0.02).WithSeed(7), DefaultConfig()},
		{"pao_test1_no_require_via", suite.Testcases[0].Scale(0.01).WithSeed(7), noVia},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := suite.Generate(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			s := step1Reference(t, d, c.cfg)
			if s.accepted == 0 || (s.viaRequired == 0) == c.cfg.RequireVia {
				t.Errorf("%d accepted and %d via-required candidates with RequireVia %v", s.accepted, s.viaRequired, c.cfg.RequireVia)
			}
			if !c.cfg.RequireVia && s.planar == 0 {
				t.Error("no core-cell candidate was accepted without a clean via")
			}
			t.Logf("%d candidates: %d accepted (%d planar-only), %d via-required, %d no-access",
				s.candidates, s.accepted, s.planar, s.viaRequired, s.noAccess)
		})
	}

	t.Run("macro_pin", func(t *testing.T) {
		d := newDesign45("macro")
		// An M2 blockage over the pin's west half: candidates there have no
		// clean via, but their M1 stubs are open.
		m := &db.Master{Name: "BLK", Class: db.ClassBlock, Size: geom.Pt(5600, 5600),
			Pins: []*db.MPin{sigPin("P", geom.R(2100, 2835, 3500, 2905))},
			Obs:  []db.Shape{{Layer: 2, Rect: geom.R(2000, 2500, 2800, 3200)}}}
		mustAdd(t, d, m)
		mustPlace(t, d, "blk", m, 0, 0, geom.OrientN)
		s := step1Reference(t, d, DefaultConfig())
		if s.planar == 0 {
			t.Error("no macro candidate was accepted without a clean via")
		}
		if s.accepted == s.planar {
			t.Error("every macro candidate is planar-only: the blockage covers the whole pin")
		}
	})
}

// step1Tally counts the candidates step1Reference decided, by outcome.
type step1Tally struct {
	candidates, accepted, planar, viaRequired, noAccess int
}

// step1Reference runs the live analysis of d under cfg, then checks the
// Explain audit of every signal pin of every class's pivot against the
// reference decision and the live access points; see
// TestStep1MatchesReference.
func step1Reference(t *testing.T, d *db.Design, cfg Config) step1Tally {
	t.Helper()
	res, err := NewAnalyzer(d, cfg).RunContext(context.Background())
	if err != nil || !res.Health.OK() {
		t.Fatalf("live run: %v, %v", err, res.Health)
	}
	refCfg := cfg
	refCfg.NoCache = true
	ref := NewAnalyzer(d, refCfg)
	sc := ref.newCellScratch()
	// The audits: Explain's re-derivation (a recorder on a one-worker
	// analyzer's AnalyzeUnique), without its per-call class lookup.
	exCfg := cfg
	exCfg.Workers = 1
	ex := NewAnalyzer(d, exCfg)
	var s step1Tally
	for _, ui := range d.UniqueInstances() {
		ref.fill(sc, ui)
		pivot := ui.Pivot()
		core := pivot.Master.Class == db.ClassCore
		for _, pin := range pivot.Master.SignalPins() {
			rec := &explainRecorder{pin: pin.Name}
			ex.rec = rec
			ex.AnalyzeUnique(ui)
			var accepted []APAudit
			for _, au := range rec.aps {
				s.candidates++
				want := referenceDecision(ref, sc, pivot, pin, au, cfg.RequireVia && core)
				where := func() string {
					return pivot.Name + "/" + pin.Name + " " + geom.Pt(au.X, au.Y).String()
				}
				if au.Reject != want.reject || au.Accepted != (want.reject == "") {
					t.Fatalf("%s: audit accepted=%v reject=%q, the reference rejects %q",
						where(), au.Accepted, au.Reject, want.reject)
				}
				if !slices.Equal(auditVerdicts(au), want.verdicts) {
					t.Fatalf("%s: via verdicts %v, the reference's %v", where(), auditVerdicts(au), want.verdicts)
				}
				switch au.Reject {
				case "":
					s.accepted++
					if len(want.clean) == 0 {
						s.planar++
					}
					if !slices.Equal(au.Dirs, want.dirs) {
						t.Fatalf("%s: dirs %v, the reference's %v", where(), au.Dirs, want.dirs)
					}
					accepted = append(accepted, au)
				case RejectViaRequired:
					s.viaRequired++
					if len(au.Dirs) != 0 {
						t.Fatalf("%s: a via-required reject lists dirs %v", where(), au.Dirs)
					}
				case RejectNoAccess:
					s.noAccess++
				}
			}
			liveAPsMatch(t, res, pivot, pin, accepted)
		}
	}
	return s
}

// step1Decision is the reference's decision on one candidate.
type step1Decision struct {
	reject   string
	verdicts []int    // per via variant, in ViasAbove order; nil off the pin
	clean    []string // the clean variants' names
	dirs     []string // clean directions, as the audit names them
}

// referenceDecision decides one audited candidate of pin from scratch in
// sc's cell context (an uncached engine): every via variant's report-path
// CheckVia and every stub's CheckMetalRect run, then the accept rule
// applies, requiring a clean via when viaRequired is set.
func referenceDecision(a *Analyzer, sc *cellScratch, pivot *db.Instance, pin *db.MPin, au APAudit, viaRequired bool) step1Decision {
	var dec step1Decision
	pt := geom.Pt(au.X, au.Y)
	rects := appendPinRects(nil, pivot, pin, au.Layer)
	if !geom.CoversPt(rects, pt) {
		dec.reject = RejectOffPin
		return dec
	}
	net := sc.netOf(pin)
	var dirs [5]bool
	for _, v := range a.Design.Tech.ViasAbove(au.Layer) {
		n := len(sc.eng.CheckVia(v, pt, net, rects))
		dec.verdicts = append(dec.verdicts, n)
		if n == 0 {
			dec.clean = append(dec.clean, v.Name)
			dirs[DirUp] = true
		}
	}
	l := a.Design.Tech.Metal(au.Layer)
	hw, ext := l.Width/2, 2*l.Pitch
	for d, r := range map[AccessDir]geom.Rect{
		DirEast:  geom.R(pt.X, pt.Y-hw, pt.X+ext, pt.Y+hw),
		DirWest:  geom.R(pt.X-ext, pt.Y-hw, pt.X, pt.Y+hw),
		DirNorth: geom.R(pt.X-hw, pt.Y, pt.X+hw, pt.Y+ext),
		DirSouth: geom.R(pt.X-hw, pt.Y-ext, pt.X+hw, pt.Y),
	} {
		dirs[d] = len(sc.eng.CheckMetalRect(au.Layer, r, net)) == 0
	}
	switch {
	case viaRequired && !dirs[DirUp]:
		dec.reject = RejectViaRequired
	case dirs == [5]bool{}:
		dec.reject = RejectNoAccess
	default:
		for d := DirUp; d <= DirSouth; d++ {
			if dirs[d] {
				dec.dirs = append(dec.dirs, d.String())
			}
		}
	}
	return dec
}

// auditVerdicts returns an audit's per-via violation counts.
func auditVerdicts(au APAudit) []int {
	var out []int
	for _, va := range au.Vias {
		out = append(out, va.Violations)
	}
	return out
}

// liveAPsMatch requires the audit's accepted candidates of pin to be the
// live result's access points for it, in order.
func liveAPsMatch(t *testing.T, res *Result, pivot *db.Instance, pin *db.MPin, accepted []APAudit) {
	t.Helper()
	var pa *PinAccess
	for _, p := range res.ByInstance[pivot.ID].Pins {
		if p.Pin == pin {
			pa = p
		}
	}
	if pa == nil {
		t.Fatalf("%s/%s: the live result has no access for the pin", pivot.Name, pin.Name)
	}
	if len(pa.APs) != len(accepted) {
		t.Fatalf("%s/%s: %d live access points, the audit accepted %d", pivot.Name, pin.Name, len(pa.APs), len(accepted))
	}
	for i, ap := range pa.APs {
		au := accepted[i]
		var clean, dirs []string
		for _, va := range au.Vias {
			if va.Violations == 0 {
				clean = append(clean, va.Via)
			}
		}
		for d := DirUp; d <= DirSouth; d++ {
			if ap.Dirs[d] {
				dirs = append(dirs, d.String())
			}
		}
		if ap.Pos != geom.Pt(au.X, au.Y) || ap.Layer != au.Layer ||
			ap.TypeX.String() != au.TypeX || ap.TypeY.String() != au.TypeY ||
			!slices.Equal(viaNames(ap.Vias), clean) || !slices.Equal(dirs, au.Dirs) {
			t.Fatalf("%s/%s: live access point %d is %v vias %v dirs %v, the audit's is %+v",
				pivot.Name, pin.Name, i, ap, viaNames(ap.Vias), dirs, au)
		}
	}
}

// viaNames lists the via definitions' names.
func viaNames(vs []*tech.ViaDef) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Name)
	}
	return out
}

// TestStep1PinAllocs: on a warm worker scratch, one pin's Step-1 pass
// allocates only what it returns: its PinAccess, the APs slice, and for
// each accepted candidate its AccessPoint and, when it has a clean via, its
// via slice, plus perPinLayer allocations for each layer the pass visits.
// That count is zero: the candidate coordinates, the points tried, the
// maximal rectangles, the tracks, the pin's layers and the via list live in
// the scratch or the analyzer. A rejected candidate allocates nothing, so
// the count does not grow with them; the pins checked reject more
// candidates than they accept.
func TestStep1PinAllocs(t *testing.T) {
	const perPinLayer = 0
	for _, spec := range []suite.Spec{
		suite.Testcases[0].Scale(0.02).WithSeed(3),
		suite.AES14.Scale(0.01).WithSeed(7),
	} {
		t.Run(spec.Name, func(t *testing.T) {
			d, err := suite.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer(d, DefaultConfig())
			sc := a.newCellScratch()
			uis := d.UniqueInstances()
			uis = uis[:min(len(uis), 12)]
			for _, ui := range uis {
				a.analyzeUnique(context.Background(), ui, nil, nil, sc)
			}
			var accepted, rejected int
			for _, ui := range uis {
				a.fill(sc, ui)
				pivot := ui.Pivot()
				for k, pin := range sc.pins {
					if !isSignal(pin) {
						continue
					}
					net := sc.nets[k]
					rec := &explainRecorder{pin: pin.Name}
					a.rec = rec
					pa := a.genAccessPoints(sc, pivot, pin, net)
					a.rec = nil
					for _, au := range rec.aps {
						if !au.Accepted {
							rejected++
						}
					}
					accepted += len(pa.APs)
					want := 1 + perPinLayer*visitedLayers(pin, pa, a.Cfg.K)
					if len(pa.APs) > 0 {
						want++
					}
					for _, ap := range pa.APs {
						want++
						if len(ap.Vias) > 0 {
							want++
						}
					}
					got := testing.AllocsPerRun(5, func() { a.genAccessPoints(sc, pivot, pin, net) })
					if got != float64(want) {
						t.Errorf("%s/%s: a warm Step-1 pass allocates %v times for %d access points, want %d",
							pivot.Name, pin.Name, got, len(pa.APs), want)
					}
				}
			}
			if rejected <= accepted {
				t.Fatalf("the pins checked reject %d candidates and accept %d: too few rejects to show they cost nothing", rejected, accepted)
			}
		})
	}
}

// visitedLayers is how many of pin's layers a Step-1 pass that returned pa
// visits: each in turn, until k access points are found.
func visitedLayers(pin *db.MPin, pa *PinAccess, k int) int {
	n, found := 0, 0
	for _, layer := range pin.Layers() {
		n++
		for _, ap := range pa.APs {
			if ap.Layer == layer {
				found++
			}
		}
		if found >= k {
			break
		}
	}
	return n
}
