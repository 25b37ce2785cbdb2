package difftest

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
)

// Summary is the deterministic per-testcase result snapshot pinned under
// testdata/golden. Durations are deliberately absent: every field must be
// byte-identical run over run, so a perf PR that changes any behaviour shows
// up as a golden diff.
type Summary struct {
	Testcase  string `json:"testcase"`
	Seed      int64  `json:"seed"`
	Node      int    `json:"node_nm"`
	Instances int    `json:"instances"`
	Nets      int    `json:"nets"`

	NumUnique       int `json:"unique_instances"`
	Clusters        int `json:"clusters"`
	TotalAPs        int `json:"total_aps"`
	OffTrackAPs     int `json:"offtrack_aps"`
	DirtyAPs        int `json:"dirty_aps"`
	TotalPins       int `json:"total_pins"`
	FailedPins      int `json:"failed_pins"`
	PatternsBuilt   int `json:"patterns_built"`
	PatternsDropped int `json:"patterns_dropped"`
	SelectedInsts   int `json:"selected_instances"`

	// APTypes counts access points per coordinate type, keyed
	// "x:<type>" and "y:<type>" (JSON emits map keys sorted).
	APTypes map[string]int `json:"ap_types"`

	// DRCCounters are the analysis run's DRC engine counters (queries,
	// checks, via verdicts, via-cache hits and misses), taken before the
	// dirty-AP recount. They are exact for any worker count, so a change
	// that does more or less DRC work, or misses the cache more often, moves
	// them.
	DRCCounters map[string]int64 `json:"drc_counters"`

	// ECO is the scoping report of one canonical move applied to the
	// analyzed design: the middle instance shifted to x+70, which flips its
	// M2 phase on every suite node (all pitches are multiples of 140).
	ECO *pao.ECOReport `json:"eco"`
}

// Summarize generates the spec's design, runs the full analysis and distills
// the deterministic summary.
func Summarize(spec suite.Spec) (Summary, error) {
	d, err := suite.Generate(spec)
	if err != nil {
		return Summary{}, err
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	res := a.Run()
	counters := a.DRC.Snapshot()
	res.Stats.DirtyAPs = a.CountDirtyAPs(res)

	s := res.Stats
	out := Summary{
		Testcase:  spec.Name,
		Seed:      spec.Seed,
		Node:      spec.Node,
		Instances: len(d.Instances),
		Nets:      len(d.Nets),

		NumUnique:       s.NumUnique,
		Clusters:        len(d.Clusters()),
		TotalAPs:        s.TotalAPs,
		OffTrackAPs:     s.OffTrackAPs,
		DirtyAPs:        s.DirtyAPs,
		TotalPins:       s.TotalPins,
		FailedPins:      s.FailedPins,
		PatternsBuilt:   s.PatternsBuilt,
		PatternsDropped: s.PatternsDropped,
		SelectedInsts:   len(res.Selected),
		APTypes:         make(map[string]int),
		DRCCounters:     counters,
	}
	for _, ua := range res.Unique {
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				out.APTypes[fmt.Sprintf("x:%s", ap.TypeX)]++
				out.APTypes[fmt.Sprintf("y:%s", ap.TypeY)]++
			}
		}
	}

	inst := d.Instances[len(d.Instances)/2]
	move := pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: geom.Pt(inst.Pos.X+70, inst.Pos.Y)}
	if _, out.ECO, err = pao.NewECOSession(a, res).Apply([]pao.ECOOp{move}); err != nil {
		return Summary{}, fmt.Errorf("%s: canonical move: %w", spec.Name, err)
	}
	return out, nil
}
