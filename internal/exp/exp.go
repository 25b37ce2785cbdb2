// Package exp reproduces the paper's experiments: Table I (suite summary),
// Experiment 1 / Table II (access point quality per unique instance pin),
// Experiment 2 / Table III (failed pins with intra- and inter-cell
// compatibility), Experiment 3 / Fig. 8 (routed DRCs with ad-hoc vs PAAF
// access) and the Fig. 9 14 nm study, plus the ablations DESIGN.md calls out.
// The same entry points back cmd/paoexp and the repository benchmarks.
package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/pao"
	"repro/internal/report"
	"repro/internal/router"
	"repro/internal/suite"
)

// Timing discipline: every experiment phase runs under an obs span, and the
// reported row seconds ARE the span durations — the printed tables and an
// exported trace can never disagree. The plain Run* entry points keep their
// original signatures and run with a private observer; the *Obs variants
// attach the spans (and, for phases that run the analyzer, the deep per-pin
// instrumentation plus DRC counters) to a caller-provided observer.

// Table1Row summarizes one generated testcase (the Table I mirror).
type Table1Row struct {
	Name     string
	StdCells int
	Macros   int
	Nets     int
	IOPins   int
	Layers   int
	DieMM2   float64
	NodeNM   int
}

// RunTable1 generates every suite testcase at the given scale and summarizes
// it.
func RunTable1(scale float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, spec := range suite.Testcases {
		d, err := suite.Generate(spec.Scale(scale))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:     d.Name,
			StdCells: d.NumStdCells(),
			Macros:   d.NumMacros(),
			Nets:     len(d.Nets),
			IOPins:   len(d.IOPins),
			Layers:   d.Tech.NumMetals(),
			DieMM2:   float64(d.Die.Width()) / 1e6 * float64(d.Die.Height()) / 1e6,
			NodeNM:   d.Tech.NodeNM,
		})
	}
	return rows, nil
}

// RenderTable1 prints the Table I analogue.
func RenderTable1(w io.Writer, rows []Table1Row) {
	t := report.New("Table I: testcase information (synthetic ISPD-2018 mirror)",
		"Benchmark", "#Std cell", "#Macro", "#Net", "#IO pin", "#Layer", "Die (mm2)", "Node")
	for _, r := range rows {
		t.AddRow(r.Name, r.StdCells, r.Macros, r.Nets, r.IOPins, r.Layers,
			fmt.Sprintf("%.2f", r.DieMM2), fmt.Sprintf("%dnm", r.NodeNM))
	}
	t.Render(w)
}

// Exp1Row is one Table II line: access point quality per unique instance pin,
// baseline (TrRte) vs PAAF.
type Exp1Row struct {
	Name       string
	NumUnique  int
	TrAPs      int
	PaafAPs    int
	TrDirty    int
	PaafDirty  int
	TrSeconds  float64
	PaafSecond float64
}

// RunExp1 runs Experiment 1 on one testcase spec at the given scale.
func RunExp1(spec suite.Spec, scale float64) (Exp1Row, error) {
	return RunExp1Obs(context.Background(), nil, spec, scale)
}

// RunExp1Obs is RunExp1 with the phases attached to the given observer's
// trace (nil runs with a private one) and the run bound to ctx: a cancelled
// or expired context aborts between phases and mid-analysis.
func RunExp1Obs(ctx context.Context, o *obs.Observer, spec suite.Spec, scale float64) (Exp1Row, error) {
	deep := o != nil
	o = obs.Ensure(o, "exp1")
	d, err := suite.Generate(spec.Scale(scale))
	if err != nil {
		return Exp1Row{}, err
	}
	row := Exp1Row{Name: d.Name}

	sp := o.Root().Start("exp1." + d.Name + ".trrte")
	base := baseline.Analyze(d)
	row.TrSeconds = sp.End().Seconds()

	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	if deep {
		a.Observe(o)
	}
	sp = o.Root().Start("exp1." + d.Name + ".paaf")
	paafRes, err := runStep1Only(ctx, a, d)
	row.PaafSecond = sp.End().Seconds()
	if err != nil {
		return row, err
	}

	row.NumUnique = paafRes.Stats.NumUnique
	row.TrAPs = base.Stats.TotalAPs
	row.PaafAPs = paafRes.Stats.TotalAPs
	sp = o.Root().Start("exp1." + d.Name + ".dirty")
	row.TrDirty = a.CountDirtyAPs(base)
	row.PaafDirty = a.CountDirtyAPs(paafRes)
	sp.End()
	return row, nil
}

// runStep1Only performs the Step-1 portion of the analysis (Experiment 1
// evaluates access point generation without compatibility), checking ctx
// between unique instances.
func runStep1Only(ctx context.Context, a *pao.Analyzer, d *db.Design) (*pao.Result, error) {
	res := &pao.Result{ByInstance: make(map[int]*pao.UniqueAccess), Selected: make(map[int]int)}
	for _, ui := range d.UniqueInstances() {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		ua := a.AnalyzeUnique(ui)
		res.Unique = append(res.Unique, ua)
		for _, inst := range ui.Insts {
			res.ByInstance[inst.ID] = ua
		}
		res.Stats.NumUnique++
		res.Stats.TotalAPs += ua.TotalAPs()
	}
	return res, nil
}

// RenderExp1 prints the Table II analogue.
func RenderExp1(w io.Writer, rows []Exp1Row) {
	t := report.New("Table II / Experiment 1: access points for unique instance pins (no compatibility)",
		"Benchmark", "#Unique Inst", "APs TrRte", "APs PAAF", "Dirty TrRte", "Dirty PAAF", "t(s) TrRte", "t(s) PAAF")
	for _, r := range rows {
		t.AddRow(r.Name, r.NumUnique, r.TrAPs, r.PaafAPs, r.TrDirty, r.PaafDirty,
			fmt.Sprintf("%.2f", r.TrSeconds), fmt.Sprintf("%.2f", r.PaafSecond))
	}
	t.Render(w)
}

// Exp2Row is one Table III line: failed pins with full compatibility
// analysis.
type Exp2Row struct {
	Name        string
	TotalPins   int
	TrFailed    int
	NoBCAFailed int
	BCAFailed   int
	TrSeconds   float64
	NoBCASecond float64
	BCASeconds  float64
}

// RunExp2 runs Experiment 2 on one testcase spec at the given scale.
func RunExp2(spec suite.Spec, scale float64) (Exp2Row, error) {
	return RunExp2Obs(context.Background(), nil, spec, scale)
}

// RunExp2Obs is RunExp2 with the phases attached to the given observer's
// trace (nil runs with a private one) and every analyzer run bound to ctx.
func RunExp2Obs(ctx context.Context, o *obs.Observer, spec suite.Spec, scale float64) (Exp2Row, error) {
	deep := o != nil
	o = obs.Ensure(o, "exp2")
	d, err := suite.Generate(spec.Scale(scale))
	if err != nil {
		return Exp2Row{}, err
	}
	row := Exp2Row{Name: d.Name}

	// Baseline: first-AP-per-pin, no compatibility.
	sp := o.Root().Start("exp2." + d.Name + ".trrte")
	base := baseline.Analyze(d)
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	if deep {
		a.Observe(o)
	}
	a.CountFailedPins(base, a.GlobalEngine())
	row.TrSeconds = sp.End().Seconds()
	row.TotalPins = base.Stats.TotalPins
	row.TrFailed = base.Stats.FailedPins
	if err := ctx.Err(); err != nil {
		return row, err
	}

	// PAAF without boundary conflict awareness (one pattern per unique
	// instance).
	cfg := pao.DefaultConfig()
	cfg.BCA = false
	noBCAAn := pao.NewAnalyzer(d, cfg)
	if deep {
		noBCAAn.Observe(o)
	}
	sp = o.Root().Start("exp2." + d.Name + ".nobca")
	noBCA, err := noBCAAn.RunContext(ctx)
	row.NoBCASecond = sp.End().Seconds()
	if err != nil {
		return row, err
	}
	row.NoBCAFailed = noBCA.Stats.FailedPins

	// PAAF with BCA (up to three patterns, cluster selection).
	fullAn := pao.NewAnalyzer(d, pao.DefaultConfig())
	if deep {
		fullAn.Observe(o)
	}
	sp = o.Root().Start("exp2." + d.Name + ".bca")
	full, err := fullAn.RunContext(ctx)
	row.BCASeconds = sp.End().Seconds()
	if err != nil {
		return row, err
	}
	row.BCAFailed = full.Stats.FailedPins
	return row, nil
}

// RenderExp2 prints the Table III analogue.
func RenderExp2(w io.Writer, rows []Exp2Row) {
	t := report.New("Table III / Experiment 2: failed pins with intra- and inter-cell compatibility",
		"Benchmark", "Total #Pins", "Fail TrRte", "Fail w/o BCA", "Fail w/ BCA", "t(s) TrRte", "t(s) w/o BCA", "t(s) w/ BCA")
	for _, r := range rows {
		t.AddRow(r.Name, r.TotalPins, r.TrFailed, r.NoBCAFailed, r.BCAFailed,
			fmt.Sprintf("%.2f", r.TrSeconds), fmt.Sprintf("%.2f", r.NoBCASecond), fmt.Sprintf("%.2f", r.BCASeconds))
	}
	t.Render(w)
}

// Exp3Result compares routed-design DRCs between access modes (the Fig. 8 /
// Section IV-B Experiment 3 analogue, run on pao_test5).
type Exp3Result struct {
	Name       string
	Mode       string
	Routed     int
	Failed     int
	WireLength int64
	Violations int
	AccessDRCs int
	Seconds    float64
}

// RunExp3 routes the scaled pao_test5 in both access modes.
func RunExp3(scale float64) ([]Exp3Result, error) {
	return RunExp3Obs(context.Background(), nil, scale)
}

// RunExp3Obs is RunExp3 with the phases attached to the given observer's
// trace (nil runs with a private one); ctx aborts between modes and inside
// the PAAF access analysis.
func RunExp3Obs(ctx context.Context, o *obs.Observer, scale float64) ([]Exp3Result, error) {
	deep := o != nil
	o = obs.Ensure(o, "exp3")
	spec := suite.Testcases[4].Scale(scale) // pao_test5, as in the paper
	var out []Exp3Result
	for _, mode := range []router.AccessMode{router.AccessAdHoc, router.AccessPAAF} {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		d, err := suite.Generate(spec)
		if err != nil {
			return nil, err
		}
		a := pao.NewAnalyzer(d, pao.DefaultConfig())
		if deep {
			a.Observe(o)
		}
		sp := o.Root().Start("exp3." + mode.String())
		cfg := router.Config{Mode: mode}
		if mode == router.AccessPAAF {
			access, err := a.RunContext(ctx)
			if err != nil {
				sp.End()
				return out, err
			}
			cfg.Access = access
		}
		r, err := router.New(d, cfg)
		if err != nil {
			return nil, err
		}
		res := r.Route()
		router.Check(a, res)
		sec := sp.End().Seconds()
		out = append(out, Exp3Result{
			Name: d.Name, Mode: mode.String(),
			Routed: res.Routed, Failed: res.Failed, WireLength: res.WireLength,
			Violations: len(res.Violations), AccessDRCs: res.AccessViolations,
			Seconds: sec,
		})
	}
	return out, nil
}

// RenderExp3 prints the Experiment 3 comparison.
func RenderExp3(w io.Writer, rows []Exp3Result) {
	t := report.New("Experiment 3 / Fig. 8: routed DRCs, ad-hoc (Dr.CU-like) vs PAAF pin access",
		"Benchmark", "Access", "Routed", "Failed", "WL (um)", "#DRCs", "#Access DRCs", "t(s)")
	for _, r := range rows {
		t.AddRow(r.Name, r.Mode, r.Routed, r.Failed, r.WireLength/1000, r.Violations, r.AccessDRCs,
			fmt.Sprintf("%.2f", r.Seconds))
	}
	t.Render(w)
}

// AES14Result is the Fig. 9 study output.
type AES14Result struct {
	Insts     int
	Unique    int
	TotalPins int
	Failed    int
	TotalAPs  int
	OffTrack  int
	Seconds   float64
}

// RunAES14 runs the 14 nm study at the given scale.
func RunAES14(scale float64) (AES14Result, error) {
	return RunAES14Obs(context.Background(), nil, scale)
}

// RunAES14Obs is RunAES14 with the run attached to the given observer's
// trace (nil runs with a private one) and bound to ctx.
func RunAES14Obs(ctx context.Context, o *obs.Observer, scale float64) (AES14Result, error) {
	deep := o != nil
	o = obs.Ensure(o, "aes14")
	d, err := suite.Generate(suite.AES14.Scale(scale))
	if err != nil {
		return AES14Result{}, err
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	if deep {
		a.Observe(o)
	}
	sp := o.Root().Start("aes14.run")
	res, err := a.RunContext(ctx)
	sec := sp.End().Seconds()
	if err != nil {
		return AES14Result{Insts: len(d.Instances), Seconds: sec}, err
	}
	return AES14Result{
		Insts:     len(d.Instances),
		Unique:    res.Stats.NumUnique,
		TotalPins: res.Stats.TotalPins,
		Failed:    res.Stats.FailedPins,
		TotalAPs:  res.Stats.TotalAPs,
		OffTrack:  res.Stats.OffTrackAPs,
		Seconds:   sec,
	}, nil
}

// RenderAES14 prints the Fig. 9 study summary.
func RenderAES14(w io.Writer, r AES14Result) {
	t := report.New("Fig. 9 study: commercial-style 14nm library (off-track access enabled automatically)",
		"#Inst", "#Unique", "#Pins", "#Failed", "#APs", "#OffTrackAPs", "t(s)")
	t.AddRow(r.Insts, r.Unique, r.TotalPins, r.Failed, r.TotalAPs, r.OffTrack,
		fmt.Sprintf("%.2f", r.Seconds))
	t.Render(w)
}

// AblationRow is one configuration of the design-choice sweeps.
type AblationRow struct {
	Name       string
	TotalAPs   int
	FailedPins int
	Patterns   int
	Dropped    int
	Seconds    float64
}

// RunAblations sweeps the design choices DESIGN.md calls out on one testcase:
// k (access points per pin), alpha (pin ordering weight), history-aware edge
// costs, BCA, and coordinate-type restriction (on-track only).
func RunAblations(spec suite.Spec, scale float64) ([]AblationRow, error) {
	return RunAblationsObs(context.Background(), nil, spec, scale)
}

// RunAblationsObs is RunAblations with one span per swept configuration on
// the given observer's trace (nil runs with a private one); ctx aborts
// between and inside configurations, returning the rows finished so far.
func RunAblationsObs(ctx context.Context, o *obs.Observer, spec suite.Spec, scale float64) ([]AblationRow, error) {
	deep := o != nil
	o = obs.Ensure(o, "ablate")
	d, err := suite.Generate(spec.Scale(scale))
	if err != nil {
		return nil, err
	}
	cfgs := []struct {
		name string
		cfg  pao.Config
	}{
		{"default (k=3, a=0.3, BCA, history)", pao.DefaultConfig()},
		{"k=1", func() pao.Config { c := pao.DefaultConfig(); c.K = 1; return c }()},
		{"k=5", func() pao.Config { c := pao.DefaultConfig(); c.K = 5; return c }()},
		{"alpha=0", func() pao.Config { c := pao.DefaultConfig(); c.Alpha = -1e-9; return c }()},
		{"alpha=1", func() pao.Config { c := pao.DefaultConfig(); c.Alpha = 1; return c }()},
		{"no history", func() pao.Config { c := pao.DefaultConfig(); c.HistoryAware = false; return c }()},
		{"no BCA", func() pao.Config { c := pao.DefaultConfig(); c.BCA = false; return c }()},
		{"on-track only", func() pao.Config {
			c := pao.DefaultConfig()
			c.AllowedTypes = []pao.CoordType{pao.OnTrack}
			return c
		}()},
		{"maxPatterns=1", func() pao.Config { c := pao.DefaultConfig(); c.MaxPatterns = 1; return c }()},
		{"maxPatterns=5", func() pao.Config { c := pao.DefaultConfig(); c.MaxPatterns = 5; return c }()},
		{"workers=4", func() pao.Config { c := pao.DefaultConfig(); c.Workers = 4; return c }()},
	}
	var out []AblationRow
	for _, c := range cfgs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		a := pao.NewAnalyzer(d, c.cfg)
		if deep {
			a.Observe(o)
		}
		sp := o.Root().Start("ablate." + c.name)
		res, err := a.RunContext(ctx)
		sec := sp.End().Seconds()
		if err != nil {
			return out, err
		}
		out = append(out, AblationRow{
			Name:       c.name,
			TotalAPs:   res.Stats.TotalAPs,
			FailedPins: res.Stats.FailedPins,
			Patterns:   res.Stats.PatternsBuilt,
			Dropped:    res.Stats.PatternsDropped,
			Seconds:    sec,
		})
	}
	return out, nil
}

// RenderAblations prints the ablation sweep.
func RenderAblations(w io.Writer, name string, rows []AblationRow) {
	t := report.New(fmt.Sprintf("Ablations on %s", name),
		"Config", "#APs", "#Failed Pins", "#Patterns", "#Dropped", "t(s)")
	for _, r := range rows {
		t.AddRow(r.Name, r.TotalAPs, r.FailedPins, r.Patterns, r.Dropped,
			fmt.Sprintf("%.2f", r.Seconds))
	}
	t.Render(w)
}
