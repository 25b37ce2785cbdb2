package pao

// Decision records: the audit trail behind one pin's access answer. The
// oracle's value is that routers can trust its verdicts without re-deriving
// them, which means operators must be able to see *why* a candidate access
// point was kept or rejected. Steps 1 and 2 call the analyzer's nil-by-default
// recorder at each decision; Explain re-derives one class with a recorder
// attached and assembles the report served at /v1/access/explain.

import (
	"fmt"

	"repro/internal/db"
)

// Reject reasons recorded for candidate access points.
const (
	// RejectOffPin: the candidate coordinate does not lie on the pin shape.
	RejectOffPin = "off-pin"
	// RejectViaRequired: Cfg.RequireVia is set, the instance is a core cell,
	// and no via variant dropped DRC-free. The planar stubs are then not
	// checked, so the record lists no dirs.
	RejectViaRequired = "via-required"
	// RejectNoAccess: neither a via nor any planar escape stub was DRC-clean.
	RejectNoAccess = "no-access"
)

// ViaAudit is one via variant's DRC verdict at a candidate point.
type ViaAudit struct {
	Via        string `json:"via"`
	Violations int    `json:"violations"`
	// FromCache: the verdict was answered by the shared ViaCache (a hit on a
	// previously filled signature). False means the DRC check ran live.
	FromCache bool `json:"from_cache"`
}

// APAudit is the decision record for one candidate access point.
type APAudit struct {
	X        int64      `json:"x"`
	Y        int64      `json:"y"`
	Layer    int        `json:"layer"`
	TypeX    string     `json:"type_x"`
	TypeY    string     `json:"type_y"`
	Accepted bool       `json:"accepted"`
	Reject   string     `json:"reject,omitempty"` // off-pin | via-required | no-access
	Dirs     []string   `json:"dirs,omitempty"`   // clean escape directions
	Vias     []ViaAudit `json:"vias,omitempty"`   // per-variant verdicts
}

// PatternAudit is the decision record for one Step-2 DP iteration.
type PatternAudit struct {
	Iteration int    `json:"iteration"`
	Choice    []int  `json:"choice"`
	Cost      int    `json:"cost"`
	Accepted  bool   `json:"accepted"`
	Reason    string `json:"reason,omitempty"` // duplicate | drc-conflict
	Index     int    `json:"index"`            // pattern index when accepted, -1 otherwise
}

// CacheAudit is the cache provenance of an explain re-derivation.
type CacheAudit struct {
	ViaHits   int64 `json:"via_hits"`
	ViaMisses int64 `json:"via_misses"`
}

// ExplainReport is the full decision audit for one pin of one class.
type ExplainReport struct {
	Class string `json:"class"`
	Pin   string `json:"pin"`
	// Cached reports whether the re-derivation ran with the verdict cache
	// enabled (the serving configuration); per-via FromCache flags then mark
	// which verdicts were memo hits.
	Cached bool `json:"cached"`
	// APs is the candidate audit in generation order: every coordinate Step 1
	// considered for this pin, with its verdicts and accept/reject decision.
	APs []APAudit `json:"aps"`
	// AcceptedAPs is the number of candidates that survived (== the pin's
	// access point count in the result).
	AcceptedAPs int `json:"accepted_aps"`
	// Patterns is the Step-2 iteration audit for the class (all pins).
	Patterns []PatternAudit `json:"patterns"`
	// PatternCount is the number of patterns kept for the class.
	PatternCount int `json:"pattern_count"`
	// Quarantined: the re-derivation panicked (mirrors the serving path's
	// class quarantine); the audit holds everything recorded before the fault.
	Quarantined     bool       `json:"quarantined,omitempty"`
	QuarantineError string     `json:"quarantine_error,omitempty"`
	Cache           CacheAudit `json:"cache"`
}

// explainRecorder keeps the audit for one pin (AP records of other pins in
// the class are dropped; pattern records are class-wide). Explain runs its
// analyzer single-threaded, so the recorder needs no lock.
type explainRecorder struct {
	pin      string
	aps      []APAudit
	patterns []PatternAudit
}

// RecordAP records one candidate access point decision for a pin.
func (r *explainRecorder) RecordAP(pin string, ap APAudit) {
	if pin == r.pin {
		r.aps = append(r.aps, ap)
	}
}

// RecordPattern records one Step-2 pattern DP iteration.
func (r *explainRecorder) RecordPattern(p PatternAudit) {
	r.patterns = append(r.patterns, p)
}

// Explain re-derives one instance's class analysis (Steps 1 and 2) with a
// decision recorder attached and returns the audit for the named pin. The
// re-derivation runs on a fresh single-threaded analyzer so it cannot disturb
// serving state; with cfg.NoCache unset it exercises the same cache machinery
// as the live run and reports per-verdict provenance. A panic during the
// re-derivation is quarantined into the report, mirroring the pipeline's
// class quarantine.
func Explain(d *db.Design, cfg Config, inst *db.Instance, pinName string) (*ExplainReport, error) {
	if inst == nil {
		return nil, fmt.Errorf("pao: explain: nil instance")
	}
	var pin *db.MPin
	for _, p := range inst.Master.SignalPins() {
		if p.Name == pinName {
			pin = p
			break
		}
	}
	if pin == nil {
		return nil, fmt.Errorf("pao: explain: instance %s has no signal pin %q", inst.Name, pinName)
	}
	var ui *db.UniqueInstance
	for _, u := range d.UniqueInstances() {
		for _, m := range u.Insts {
			if m == inst {
				ui = u
				break
			}
		}
		if ui != nil {
			break
		}
	}
	if ui == nil {
		return nil, fmt.Errorf("pao: explain: instance %s not in any unique class", inst.Name)
	}

	cfg.Workers = 1
	a := NewAnalyzer(d, cfg)
	rec := &explainRecorder{pin: pinName}
	a.rec = rec
	rep := &ExplainReport{Class: ui.Signature(), Pin: pinName, Cached: !a.Cfg.NoCache}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep.Quarantined = true
				rep.QuarantineError = fmt.Sprint(r)
			}
		}()
		ua := a.AnalyzeUnique(ui)
		if ua == nil {
			return
		}
		rep.PatternCount = len(ua.Patterns)
		for _, pa := range ua.Pins {
			if pa.Pin.Name == pinName {
				rep.AcceptedAPs = len(pa.APs)
			}
		}
	}()
	rep.APs = rec.aps
	rep.Patterns = rec.patterns
	rep.Cache = CacheAudit{ViaHits: a.DRC.CacheHits.Load(), ViaMisses: a.DRC.CacheMisses.Load()}
	return rep, nil
}
