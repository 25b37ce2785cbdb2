package pao

// Partial-result primitives for the distributed coordinator/worker flow
// (internal/dist). The pipeline is embarrassingly parallel at two grains —
// unique-instance classes for Steps 1-2 and row clusters for Step 3 — so a
// coordinator can farm out disjoint shards and reassemble one whole Result:
//
//	AnalyzeClasses  worker-side Steps 1-2 for a class-signature subset
//	SliceResult     restrict a Result to a class subset (wire payloads)
//	MergeResults    reassemble partials in design order, first-wins dedup
//	ClusterKey      stable cross-process cluster identity
//	SelectClusters  worker-side Step-3 DP for a cluster-key subset
//
// The merge contract is byte-identity: merging partial results covering all
// classes, then applying the per-cluster selections and the coordinator-local
// failed-pin recount, must re-encode to exactly the snapshot a single-process
// RunContext produces. Everything order-dependent therefore follows the same
// deterministic order RunContext uses (d.UniqueInstances(), d.Clusters()).

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/drc"
)

// newResult returns an empty Result: no classes, no selections, clean health.
func newResult() *Result {
	return &Result{
		ByInstance: make(map[int]*UniqueAccess),
		Selected:   make(map[int]int),
		Health:     newHealth(),
	}
}

// foldClass accumulates one analyzed class into the result: the Unique list,
// the per-member instance index, and the class-derived stats. It is the single
// assembly point shared by RunContext, AnalyzeClasses and MergeResults, so a
// merged result cannot drift from the single-process accounting; an ECO
// commit patches a result through its stats half, foldClassStats.
func foldClass(res *Result, ui *db.UniqueInstance, ua *UniqueAccess) {
	res.Unique = append(res.Unique, ua)
	for _, inst := range ui.Insts {
		res.ByInstance[inst.ID] = ua
	}
	foldClassStats(&res.Stats, ua, 1)
}

// foldClassStats adds one class's contribution to the class-derived stats
// (sign 1) or takes it out (sign -1).
func foldClassStats(st *Stats, ua *UniqueAccess, sign int) {
	off := 0
	for _, pa := range ua.Pins {
		for _, ap := range pa.APs {
			if ap.OffTrack() {
				off++
			}
		}
	}
	st.NumUnique += sign
	st.TotalAPs += sign * ua.TotalAPs()
	st.PatternsBuilt += sign * len(ua.Patterns)
	st.PatternsDropped += sign * ua.DroppedPatterns
	st.OffTrackAPs += sign * off
}

// AnalyzeClasses runs Steps 1 and 2 for exactly the classes named by sigs and
// returns the partial Result (Selected empty, TotalPins/FailedPins zero,
// timing fields zero). Classes are processed in design order regardless of the
// order of sigs; quarantine semantics match RunContext (a panicking class
// lands in Health, the rest of the shard survives). An unknown signature is a
// protocol error — the caller validated the design hash, so it means the
// shard request was built against a different design.
func (a *Analyzer) AnalyzeClasses(ctx context.Context, sigs []string) (*Result, error) {
	want := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		want[s] = true
	}
	var uis []*db.UniqueInstance
	for _, ui := range a.Design.UniqueInstances() {
		if want[ui.Signature()] {
			uis = append(uis, ui)
			delete(want, ui.Signature())
		}
	}
	if len(want) > 0 {
		for s := range want {
			return nil, fmt.Errorf("pao: AnalyzeClasses: class %s not in design", s)
		}
	}
	res := newResult()
	a.analyzeClasses(ctx, res, uis, nil)
	if err := ctx.Err(); err != nil {
		res.Health.MarkCancelled()
		return res, err
	}
	return res, nil
}

// SliceResult returns a shallow copy of res restricted to the classes named by
// sigs: the UniqueAccess values are shared (they are read-only after
// analysis), Selected keeps only entries for member instances of kept classes,
// stats are recomputed from the kept classes, and Health keeps only the kept
// classes' statuses and errors. Slicing the wire payload this way keeps
// partial snapshots small and makes slice -> merge the identity on a full
// cover of the class set.
func SliceResult(res *Result, sigs []string) *Result {
	want := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		want[s] = true
	}
	out := newResult()
	for _, ua := range res.Unique {
		if !want[ua.UI.Signature()] {
			continue
		}
		foldClass(out, ua.UI, ua)
		for _, inst := range ua.UI.Insts {
			if idx, ok := res.Selected[inst.ID]; ok {
				out.Selected[inst.ID] = idx
			}
		}
	}
	if res.Health != nil {
		res.Health.mu.Lock()
		for sig, st := range res.Health.classes {
			if want[sig] {
				out.Health.classes[sig] = st
			}
		}
		for _, e := range res.Health.errors {
			if want[e.Signature] {
				out.Health.errors = append(out.Health.errors, e)
			}
		}
		res.Health.mu.Unlock()
	}
	return out
}

// MergeResults reassembles partial results into one whole. Classes land in
// design order (d.UniqueInstances()) with first-wins dedup — hedged shards
// return identical analyses, so whichever copy arrived first is kept — and the
// class-derived stats are recomputed through the same foldClass accounting
// RunContext uses. Selected entries and health records are unioned (first
// wins for Selected; class statuses keep the worst). TotalPins/FailedPins
// stay zero: the coordinator recounts them against the full design once every
// selection is in place.
func MergeResults(d *db.Design, parts ...*Result) *Result {
	bySig := make(map[string]*UniqueAccess)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, ua := range p.Unique {
			sig := ua.UI.Signature()
			if _, ok := bySig[sig]; !ok {
				bySig[sig] = ua
			}
		}
	}
	res := newResult()
	for _, ui := range d.UniqueInstances() {
		if ua := bySig[ui.Signature()]; ua != nil {
			foldClass(res, ui, ua)
		}
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for id, idx := range p.Selected {
			if _, ok := res.Selected[id]; !ok {
				res.Selected[id] = idx
			}
		}
		if p.Health == nil {
			continue
		}
		p.Health.mu.Lock()
		for sig, st := range p.Health.classes {
			if st > res.Health.classes[sig] {
				res.Health.classes[sig] = st
			}
		}
		res.Health.errors = append(res.Health.errors, p.Health.errors...)
		if p.Health.cancelled {
			res.Health.cancelled = true
		}
		res.Health.respawns += p.Health.respawns
		p.Health.mu.Unlock()
	}
	return res
}

// ClusterKey identifies a row cluster stably across processes: both sides
// derive clusters from the same design with the same deterministic
// d.Clusters(), so the leftmost member's name is a portable shard key.
func ClusterKey(cl db.Cluster) string { return clusterDetail(cl) }

// SeedDefaultSelections sets pattern 0 for every instance that has patterns —
// the Step-3 baseline RunContext starts from before any cluster DP runs. The
// distributed coordinator applies it once to the merged result, then overlays
// the per-cluster picks returned by SelectClusters.
func SeedDefaultSelections(d *db.Design, res *Result) {
	for _, inst := range d.Instances {
		if ua := res.ByInstance[inst.ID]; ua != nil && len(ua.Patterns) > 0 {
			res.Selected[inst.ID] = 0
		}
	}
}

// SelectClusters runs the Step-3 DP for exactly the clusters named by keys
// against the merged result res and the fixed-design engine, through the
// cluster loop SelectPatterns uses, returning the pattern picks (instance ID
// -> pattern index) and a Health holding any degradation the DP suffered (a
// panicking cluster degrades its member classes and keeps the default
// pattern). Unknown keys are protocol errors, as in AnalyzeClasses.
func (a *Analyzer) SelectClusters(ctx context.Context, res *Result, eng *drc.Engine, keys []string) (map[int]int, *Health, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var run []db.Cluster
	for _, cl := range a.Design.Clusters() {
		if k := ClusterKey(cl); want[k] {
			run = append(run, cl)
			delete(want, k)
		}
	}
	if len(want) > 0 {
		for k := range want {
			return nil, nil, fmt.Errorf("pao: SelectClusters: cluster %s not in design", k)
		}
	}
	h := newHealth()
	picks := make(map[int]int)
	a.selectClusters(ctx, res, eng, nil, run, h, picks, a.queryCtxs())
	if err := ctx.Err(); err != nil {
		h.MarkCancelled()
		return picks, h, err
	}
	return picks, h, nil
}
