package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
	"repro/internal/tech"
)

// renderAP renders every field of an access point, at position pos, as one
// comparable string.
func renderAP(ap *pao.AccessPoint, pos geom.Point) string {
	if ap == nil {
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v M%d %v/%v pref=%v dirs=%v vias=", pos, ap.Layer, ap.TypeX, ap.TypeY, ap.OnPref, ap.Dirs)
	for _, v := range ap.Vias {
		b.WriteString(v.Name + ",")
	}
	return b.String()
}

// memberAnswers renders a class's answers translated onto member inst: the
// candidate APs per pin name, and each pattern, in order, as its cost and a
// pin-name-keyed list of chosen APs. Pins are keyed by name because the pin
// order sorts on absolute coordinates.
func memberAnswers(ua *pao.UniqueAccess, inst *db.Instance) (aps map[string][]string, pats []string) {
	aps = make(map[string][]string, len(ua.Pins))
	for _, pa := range ua.Pins {
		for _, ap := range pa.APs {
			aps[pa.Pin.Name] = append(aps[pa.Pin.Name], renderAP(ap, ua.TranslateTo(inst, ap.Pos)))
		}
	}
	for _, p := range ua.Patterns {
		var picks []string
		for i, pa := range ua.Pins {
			pos := geom.Point{}
			ap := ua.APOf(p, i)
			if ap != nil {
				pos = ua.TranslateTo(inst, ap.Pos)
			}
			picks = append(picks, pa.Pin.Name+"="+renderAP(ap, pos))
		}
		slices.Sort(picks)
		pats = append(pats, strconv.Itoa(p.Cost)+" "+strings.Join(picks, " "))
	}
	return aps, pats
}

// allPhases is an instance's phase against every track pattern — its offsets
// under the paper's all-pattern signature.
func allPhases(d *db.Design, inst *db.Instance) string {
	var b []byte
	for _, tp := range d.Tracks {
		c := inst.Pos.Y
		if isVerticalPattern(tp) {
			c = inst.Pos.X
		}
		b = strconv.AppendInt(append(b, '/'), tp.Offset(c), 10)
	}
	return string(b)
}

// checkPivotIndependent analyzes every instance as the only member of its own
// class and requires its answers to equal its class's answers translated
// onto it. It returns how many instances the paper's all-pattern signature
// would have put in another class than their pivot's.
func checkPivotIndependent(t *testing.T, a *pao.Analyzer, res *pao.Result) int {
	t.Helper()
	d := a.Design
	split := 0
	for _, inst := range d.Instances {
		ua := res.UAFor(inst)
		if ua == nil {
			t.Fatalf("%s: no class", inst.Name)
		}
		if allPhases(d, inst) != allPhases(d, ua.UI.Pivot()) {
			split++
		}
		one := a.AnalyzeUnique(&db.UniqueInstance{Master: inst.Master, Orient: inst.Orient,
			Offsets: d.OffsetsOf(inst), Insts: []*db.Instance{inst}})
		wantAPs, wantPats := memberAnswers(ua, inst)
		gotAPs, gotPats := memberAnswers(one, inst)
		for pin, want := range wantAPs {
			if got := gotAPs[pin]; !slices.Equal(got, want) {
				t.Fatalf("%s (class %s) pin %s: alone %q, class %q", inst.Name, ua.UI.Signature(), pin, got, want)
			}
		}
		if len(gotAPs) != len(wantAPs) {
			t.Fatalf("%s: alone %d pins with APs, class %d", inst.Name, len(gotAPs), len(wantAPs))
		}
		if !slices.Equal(gotPats, wantPats) {
			t.Fatalf("%s (class %s): patterns alone %q, class %q", inst.Name, ua.UI.Signature(), gotPats, wantPats)
		}
	}
	return split
}

// TestPivotIndependence is the metamorphic proof of the derived
// unique-instance partition: every instance, analyzed as the only member of
// its own class, must give exactly its class's answers translated onto it.
// When every class passes, the derived partition and the paper's all-pattern
// partition answer identically. Checked on the suite and the LEF/DEF input
// paths, with caches on and off, fresh and after a seeded ECO script; a run
// in which no member differs from its pivot on some track phase would prove
// nothing and fails.
func TestPivotIndependence(t *testing.T) {
	specs := []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[3].Scale(0.004).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
	}
	for si, spec := range specs {
		for _, path := range []string{"suite", "lefdef"} {
			for _, noCache := range []bool{false, true} {
				spec, path, noCache, seed := spec, path, noCache, int64(2000+si)
				t.Run(fmt.Sprintf("%s/%s/nocache=%v", spec.Name, path, noCache), func(t *testing.T) {
					d, err := suite.Generate(spec)
					if err != nil {
						t.Fatal(err)
					}
					if path == "lefdef" {
						d = clitest.RoundTrip(t, d)
					}
					cfg := pao.DefaultConfig()
					cfg.NoCache = noCache
					a := pao.NewAnalyzer(d, cfg)
					res := a.Run()
					rng := rand.New(rand.NewSource(seed))
					split := checkPivotIndependent(t, a, res)

					sess := pao.NewECOSession(a, res)
					if _, _, err := sess.Apply(genECOScript(d, rng, 6, 0)); err != nil {
						t.Fatal(err)
					}
					// Generated rows all share the pin layer's own track
					// phase; half-pitch moves across M1's wires vary it too.
					half := d.Tech.Metal(1).Pitch / 2
					var ops []pao.ECOOp
					for i := 0; i < 3; i++ {
						inst := d.Instances[rng.Intn(len(d.Instances))]
						to := inst.Pos.Add(geom.Pt(0, half))
						if d.Tech.Metal(1).Dir == tech.Vertical {
							to = inst.Pos.Add(geom.Pt(half, 0))
						}
						ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: to})
					}
					res, _, err = sess.Apply(ops)
					if err != nil {
						t.Fatal(err)
					}
					split += checkPivotIndependent(t, a, res)
					if split == 0 {
						t.Fatal("no member differs from its pivot in any track phase; the check is vacuous")
					}
				})
			}
		}
	}
}
