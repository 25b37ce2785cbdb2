// Package pao implements the paper's contribution: a multi-level, design
// rule-aware pin access analysis framework (PAAF). It runs three steps:
//
//  1. pin-based access point generation per unique instance (Algorithm 1) —
//     enumerate coordinate-type candidates, validate each with the DRC
//     engine, early-terminate at k valid points per pin;
//  2. unique instance-based access pattern generation (Algorithms 2 and 3) —
//     dynamic programming over a layered graph of access points with
//     boundary-conflict-aware and history-aware edge costs, emitting up to
//     MaxPatterns mutually DRC-clean patterns;
//  3. cluster-based access pattern selection — the same DP shape over
//     instances in row clusters, minimizing inter-cell conflicts between
//     boundary access points.
package pao

import (
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/tech"
)

// CoordType is the paper's coordinate taxonomy (Section II-C). The numeric
// value doubles as the cost/priority: lower is preferred.
type CoordType uint8

const (
	OnTrack     CoordType = 0
	HalfTrack   CoordType = 1
	ShapeCenter CoordType = 2
	EncBoundary CoordType = 3
)

var coordTypeNames = [...]string{"onTrack", "halfTrack", "shapeCenter", "encBoundary"}

func (c CoordType) String() string {
	if int(c) < len(coordTypeNames) {
		return coordTypeNames[c]
	}
	return fmt.Sprintf("CoordType(%d)", uint8(c))
}

// AccessDir is a direction from which the router can reach an access point.
type AccessDir uint8

const (
	DirUp AccessDir = iota // via to the upper layer
	DirEast
	DirWest
	DirNorth
	DirSouth
)

var accessDirNames = [...]string{"up", "E", "W", "N", "S"}

func (d AccessDir) String() string { return accessDirNames[d] }

// AccessPoint is an x-y coordinate on a metal layer where the detailed router
// may finish routing a pin, together with the directions and vias that are
// valid there (Section II-B1). Coordinates are design coordinates of the
// unique instance's pivot member; Translate maps them onto other members.
type AccessPoint struct {
	Pos    geom.Point
	Layer  int // metal number
	TypeX  CoordType
	TypeY  CoordType
	Dirs   [5]bool        // indexed by AccessDir
	Vias   []*tech.ViaDef // valid up-vias; Vias[0] is the primary
	OnPref CoordType      // type of the preferred-direction coordinate
}

// HasUp reports whether up-via access is valid.
func (ap *AccessPoint) HasUp() bool { return ap.Dirs[DirUp] }

// Primary returns the preferred via for up access, or nil.
func (ap *AccessPoint) Primary() *tech.ViaDef {
	if len(ap.Vias) == 0 {
		return nil
	}
	return ap.Vias[0]
}

// Cost is the access point quality metric: the sum of its coordinate type
// costs (lower is better).
func (ap *AccessPoint) Cost() int { return int(ap.TypeX) + int(ap.TypeY) }

// OffTrack reports whether either coordinate is off-track.
func (ap *AccessPoint) OffTrack() bool { return ap.TypeX != OnTrack || ap.TypeY != OnTrack }

func (ap *AccessPoint) String() string {
	return fmt.Sprintf("AP%v/M%d[x:%v,y:%v]", ap.Pos, ap.Layer, ap.TypeX, ap.TypeY)
}

// PinAccess holds the generated access points for one pin of a unique
// instance.
type PinAccess struct {
	Pin *db.MPin
	APs []*AccessPoint
	// SortKey is x_avg + alpha*y_avg over the APs, used for pin ordering.
	SortKey float64
}

// AvgPos returns the mean coordinate of the pin's access points.
func (pa *PinAccess) AvgPos() (float64, float64) {
	if len(pa.APs) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, ap := range pa.APs {
		sx += float64(ap.Pos.X)
		sy += float64(ap.Pos.Y)
	}
	n := float64(len(pa.APs))
	return sx / n, sy / n
}

// AccessPattern selects one access point per pin of a unique instance such
// that the primary vias are mutually compatible (Section II-B2).
type AccessPattern struct {
	// Choice[i] indexes into Pins[i].APs, following the unique instance's
	// pin order. A value of -1 marks a pin with no access point.
	Choice []int
	Cost   int
}

// UniqueAccess is the full intra-cell analysis result for one unique
// instance: ordered pins with their access points and the generated patterns.
type UniqueAccess struct {
	UI *db.UniqueInstance
	// PivotPos is the pivot member's placement at analysis time; member
	// translation uses it so a later move of the pivot (incremental flows)
	// cannot skew the class's coordinates.
	PivotPos geom.Point
	Pins     []*PinAccess // in pin order (x_avg + alpha*y_avg)
	Patterns []*AccessPattern
	// DroppedPatterns counts DP results discarded by the final whole-pattern
	// DRC validation (the "unseen DRCs" check at the end of Section III-B).
	DroppedPatterns int
}

// APOf returns the access point the pattern chooses for ordered pin i, or nil.
func (ua *UniqueAccess) APOf(p *AccessPattern, i int) *AccessPoint {
	if p == nil || i < 0 || i >= len(p.Choice) || p.Choice[i] < 0 {
		return nil
	}
	return ua.Pins[i].APs[p.Choice[i]]
}

// TotalAPs returns the number of access points across all pins.
func (ua *UniqueAccess) TotalAPs() int {
	n := 0
	for _, pa := range ua.Pins {
		n += len(pa.APs)
	}
	return n
}

// Translate maps a pivot-coordinate point onto another member instance of the
// same unique instance (same master, orientation and track offsets, so a pure
// translation). Prefer UniqueAccess.TranslateTo, which stays correct when the
// pivot instance later moves.
func Translate(ui *db.UniqueInstance, member *db.Instance, p geom.Point) geom.Point {
	pivot := ui.Pivot()
	return p.Sub(pivot.Pos).Add(member.Pos)
}

// TranslateTo maps a class-coordinate point onto a member instance using the
// pivot position captured at analysis time.
func (ua *UniqueAccess) TranslateTo(member *db.Instance, p geom.Point) geom.Point {
	return p.Sub(ua.PivotPos).Add(member.Pos)
}

// Config tunes the analysis. Zero values select the paper's settings via
// DefaultConfig.
type Config struct {
	// K is the target number of access points per pin (Algorithm 1's k).
	K int
	// Alpha weighs the y coordinate in pin ordering (Section III-B).
	Alpha float64
	// MaxPatterns bounds the access patterns generated per unique instance.
	MaxPatterns int
	// BCA enables boundary-conflict-aware edge costs (penalizing reuse of
	// boundary-pin access points across patterns). Disabling it reproduces
	// the "w/o BCA" rows of Table III (MaxPatterns is forced to 1).
	BCA bool
	// HistoryAware enables the prev-1 -> curr DRC term of Algorithm 3.
	HistoryAware bool
	// RequireVia makes up-via validity mandatory for standard-cell access
	// points (footnote 1 of the paper). Macro pins accept planar-only access.
	RequireVia bool
	// AllowedTypes restricts the coordinate types used for candidate
	// generation (ablation hook). Empty means all four.
	AllowedTypes []CoordType
	// Costs.
	PenaltyCost int // boundary AP reuse penalty (Algorithm 3)
	DRCCost     int // conflicting access point pair cost (Algorithm 3)
	// Workers sets the number of goroutines of each fan-out: Steps 1-2 per
	// unique-instance class, Step 3 per row cluster and the failed-pin check
	// per terminal (the multi-threading the paper lists as future work). 0 or
	// 1 runs one, matching the paper's single-threaded setup. Results are
	// identical regardless of worker count.
	Workers int
	// FailFast aborts the run at the first recovered pipeline fault instead
	// of quarantining the class and continuing; RunContext then returns the
	// fault as its error. The default is graceful degradation.
	FailFast bool
	// NoCache disables the analyzer's memoization layer, the shared via-drop
	// verdict cache; every DRC question is then answered by a live check. The zero value keeps caching on. The
	// flag exists for differential testing and benchmarking — results are
	// identical either way.
	NoCache bool
}

// workers returns the effective worker count (Workers with < 1 meaning 1) —
// the single normalization point for every fan-out site.
func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// DefaultConfig returns the paper's settings: k = 3, alpha = 0.3, up to three
// patterns per unique instance, BCA and history-aware costs on.
func DefaultConfig() Config {
	return Config{
		K:            3,
		Alpha:        0.3,
		MaxPatterns:  3,
		BCA:          true,
		HistoryAware: true,
		RequireVia:   true,
		PenaltyCost:  100,
		DRCCost:      10000,
	}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.K <= 0 {
		c.K = d.K
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = d.MaxPatterns
	}
	if !c.BCA {
		c.MaxPatterns = 1
	}
	if c.PenaltyCost <= 0 {
		c.PenaltyCost = d.PenaltyCost
	}
	if c.DRCCost <= 0 {
		c.DRCCost = d.DRCCost
	}
	return c
}

// typeAllowed reports whether a coordinate type participates in candidate
// generation under the config.
func (c Config) typeAllowed(t CoordType) bool {
	if len(c.AllowedTypes) == 0 {
		return true
	}
	for _, a := range c.AllowedTypes {
		if a == t {
			return true
		}
	}
	return false
}

// StepTimes records the durations of one Run's phases. Step1 and Step2 are
// CPU time summed across workers (they can exceed Step12Wall when
// Config.Workers > 1); the remaining fields are wall clock.
type StepTimes struct {
	Step1      time.Duration // access point generation (Algorithm 1)
	Step2      time.Duration // pattern generation (Algorithms 2-3)
	Step12Wall time.Duration // wall clock of the step 1+2 fan-out
	Step3      time.Duration // cluster-based pattern selection
	FailedPins time.Duration // failed-pin accounting
	Total      time.Duration // full Run wall clock
}

// Stats aggregates the counters the paper's tables report, plus the
// per-step durations of the Run that produced them.
type Stats struct {
	NumUnique       int
	TotalAPs        int // Table II "Total #APs"
	DirtyAPs        int // Table II "#Dirty APs" (always 0 for PAAF)
	TotalPins       int // Table III "Total #Pins" (instance pins with nets)
	FailedPins      int // Table III "#Failed Pins"
	PatternsBuilt   int
	PatternsDropped int
	OffTrackAPs     int
	Steps           StepTimes
}

// Counts returns the stats with the timing fields zeroed — the deterministic
// portion that must be identical across worker counts.
func (s Stats) Counts() Stats {
	s.Steps = StepTimes{}
	return s
}

// Result is the full analysis output.
type Result struct {
	Unique []*UniqueAccess
	// ByInstance maps instance ID to its unique access class.
	ByInstance map[int]*UniqueAccess
	// Selected maps instance ID to the chosen pattern index (Step 3).
	Selected map[int]int
	Stats    Stats
	// Health reports quarantined classes, recovered panics and cancellation.
	// Always non-nil on results produced by Run/RunContext; a clean run has
	// Health.OK() == true.
	Health *Health
}

// UAFor returns the unique access class of an instance, or nil.
func (r *Result) UAFor(inst *db.Instance) *UniqueAccess { return r.ByInstance[inst.ID] }

// PatternFor returns the selected pattern for an instance, or nil.
func (r *Result) PatternFor(inst *db.Instance) *AccessPattern {
	ua := r.ByInstance[inst.ID]
	if ua == nil {
		return nil
	}
	idx, ok := r.Selected[inst.ID]
	if !ok || idx < 0 || idx >= len(ua.Patterns) {
		return nil
	}
	return ua.Patterns[idx]
}

// AccessPointFor returns the selected access point for an instance pin, in
// the instance's own design coordinates, or nil when the pin has no clean
// access.
func (r *Result) AccessPointFor(inst *db.Instance, pin *db.MPin) *AccessPoint {
	ap, pos := r.accessPoint(inst, pin)
	if ap == nil {
		return nil
	}
	cp := *ap
	cp.Pos = pos
	return &cp
}

// accessPoint is AccessPointFor without the copy: the class's access point
// (its Pos in pivot coordinates) and its position on inst.
func (r *Result) accessPoint(inst *db.Instance, pin *db.MPin) (*AccessPoint, geom.Point) {
	ua := r.ByInstance[inst.ID]
	if ua == nil {
		return nil, geom.Point{}
	}
	pat := r.PatternFor(inst)
	for i, pa := range ua.Pins {
		if pa.Pin != pin {
			continue
		}
		var ap *AccessPoint
		if pat != nil {
			ap = ua.APOf(pat, i)
		}
		if ap == nil && len(pa.APs) > 0 {
			ap = pa.APs[0]
		}
		if ap == nil {
			return nil, geom.Point{}
		}
		return ap, ua.TranslateTo(inst, ap.Pos)
	}
	return nil, geom.Point{}
}
