package pao

// Incremental ECO re-analysis: apply a small batch of placement edits
// (move/swap/insert/delete) to an already-analyzed design and repair the
// Result without re-running the whole pipeline. The repair is provably
// equivalent to a fresh full analysis of the mutated design (the
// internal/difftest ECO fuzzer byte-compares the snapshots); the work is
// scoped by these rules:
//
//   - class dirtiness: a unique-instance class is re-analyzed (Steps 1-2)
//     only when its pivot identity or pivot position changed, or when the
//     class is new. Membership-only changes are merged copy-on-write: the new
//     class shares the old Pins/Patterns (the analysis is pivot-relative and
//     the per-member translation uses the captured PivotPos, so member lists
//     do not affect the data — or its serialized bytes).
//   - cluster dirtiness: a row cluster's Step-3 DP is re-run when it contains
//     an affected instance, a member of a re-analyzed or new class, or an
//     instance that joined a class (the members that stayed in a carried
//     class keep their pattern list, so their picks stay valid), when its
//     membership differs from every pre-ECO cluster (splits/merges re-couple
//     the DP chain), or when a member's shape extent touches the dirty
//     region. The dirty region is the union of every op's old and new
//     instance extents bloated by the ECO halo — the maximum distance at
//     which an engine mutation can change a vertex-cost via verdict
//     (drc.SigHalo plus the largest via extent; Step-3 edge costs are
//     engine-independent, so they never dirty a cluster).
//   - engine scoping: the session maintains one tracked global engine across
//     ECOs, removing and re-adding exactly the mutated instances' shapes.
//     The shared via-verdict cache needs no update: it is content-addressed,
//     so a mutated environment encodes to a new key (see drc.ViaCache).
//   - failed-pin scoping: a second engine holds the fixed shapes plus every
//     net terminal's selected via, with each terminal's verdict on record.
//     A commit moves only the mutated instances' shapes and the vias whose
//     (via, position) changed, then re-validates the terminals of moved
//     instances, the terminals whose via changed, and every terminal whose
//     via-check window can reach a removed or added object. A via check
//     queries only within the ECO halo of the via's own shapes on their own
//     layers, so querying the engine around each mutated object finds them
//     all (see recount). The Step-3 vertex costs need the tracked engine's
//     fixed-shapes-only view, hence two engines.
//
// The paper motivates all of this with placement optimization, "where
// frequent changes in placement require a tremendous amount of inter-cell pin
// access analysis" (Section IV-B): the re-analysis, re-selection and
// failed-pin recount of an ECO scale with the edit, not with the design.

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/geom"
)

// ECOOpKind enumerates the supported placement edits.
type ECOOpKind uint8

const (
	// ECOMove places an existing instance at a new position.
	ECOMove ECOOpKind = iota
	// ECOSwap exchanges the positions and orientations of two instances.
	ECOSwap
	// ECOInsert places a new, unconnected instance.
	ECOInsert
	// ECODelete removes an instance and its net terminals.
	ECODelete
)

var ecoOpNames = [...]string{"move", "swap", "insert", "delete"}

func (k ECOOpKind) String() string {
	if int(k) < len(ecoOpNames) {
		return ecoOpNames[k]
	}
	return fmt.Sprintf("ECOOpKind(%d)", uint8(k))
}

// ECOOp is one placement edit.
type ECOOp struct {
	Kind   ECOOpKind
	Inst   string      // target instance name (the new name for ECOInsert)
	Other  string      // ECOSwap: the partner instance
	To     geom.Point  // ECOMove/ECOInsert: the placement position
	Orient geom.Orient // ECOInsert: the placement orientation
	Master string      // ECOInsert: the master cell name
}

// validateOps checks a whole script against the design before anything is
// mutated (all-or-nothing: a rejected script leaves design and result
// untouched). The script's own inserts and deletes are simulated over the
// design's names, so later ops may reference earlier inserts and may not
// reference earlier deletes.
func validateOps(d *db.Design, ops []ECOOp) error {
	simulated := make(map[string]bool) // name -> exists, for names the script inserted or deleted
	exists := func(name string) bool {
		if e, ok := simulated[name]; ok {
			return e
		}
		return d.InstByName(name) != nil
	}
	for i, op := range ops {
		switch op.Kind {
		case ECOMove:
			if !exists(op.Inst) {
				return fmt.Errorf("eco: op %d: move: unknown instance %q", i, op.Inst)
			}
		case ECOSwap:
			if !exists(op.Inst) {
				return fmt.Errorf("eco: op %d: swap: unknown instance %q", i, op.Inst)
			}
			if !exists(op.Other) {
				return fmt.Errorf("eco: op %d: swap: unknown instance %q", i, op.Other)
			}
			if op.Inst == op.Other {
				return fmt.Errorf("eco: op %d: swap: %q with itself", i, op.Inst)
			}
		case ECOInsert:
			if op.Inst == "" {
				return fmt.Errorf("eco: op %d: insert: empty instance name", i)
			}
			if exists(op.Inst) {
				return fmt.Errorf("eco: op %d: insert: instance %q already exists", i, op.Inst)
			}
			if d.MasterByName(op.Master) == nil {
				return fmt.Errorf("eco: op %d: insert: unknown master %q", i, op.Master)
			}
			simulated[op.Inst] = true
		case ECODelete:
			if !exists(op.Inst) {
				return fmt.Errorf("eco: op %d: delete: unknown instance %q", i, op.Inst)
			}
			simulated[op.Inst] = false
		default:
			return fmt.Errorf("eco: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// applyOpToDesign performs the design-database part of one validated op. Both
// the ECO engine and ApplyOpsToDesign go through it, so an ECO'd design and a
// freshly mutated twin are structurally identical (including instance IDs,
// which AddInstance hands out deterministically).
func applyOpToDesign(d *db.Design, op *ECOOp) error {
	switch op.Kind {
	case ECOMove:
		d.InstByName(op.Inst).Pos = op.To
	case ECOSwap:
		ia, ib := d.InstByName(op.Inst), d.InstByName(op.Other)
		ia.Pos, ib.Pos = ib.Pos, ia.Pos
		ia.Orient, ib.Orient = ib.Orient, ia.Orient
	case ECOInsert:
		return d.AddInstance(&db.Instance{
			Name: op.Inst, Master: d.MasterByName(op.Master), Pos: op.To, Orient: op.Orient,
		})
	case ECODelete:
		d.RemoveInstance(op.Inst)
	}
	return nil
}

// ApplyOpsToDesign validates and applies an ECO script to a design database
// only — no analysis state. The differential tests use it to build the
// "fresh analysis" twin of an ECO'd design.
func ApplyOpsToDesign(d *db.Design, ops []ECOOp) error {
	if err := validateOps(d, ops); err != nil {
		return err
	}
	for i := range ops {
		if err := applyOpToDesign(d, &ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// ecoHalo bounds how far an engine mutation can influence a via-drop verdict:
// the largest via extent (enclosures and cuts) plus the largest per-layer
// signature halo or cut spacing. An op's influence region is its old and new
// shape extents bloated by this distance.
func (a *Analyzer) ecoHalo() int64 {
	t := a.Design.Tech
	var halo int64
	for k := 1; k <= t.NumMetals(); k++ {
		if h := drc.SigHalo(t.Metal(k)); h > halo {
			halo = h
		}
	}
	for k := 1; k < t.NumMetals(); k++ {
		if c := t.Cut(k); c != nil && c.Spacing > halo {
			halo = c.Spacing
		}
	}
	var ext int64
	grow := func(r geom.Rect) {
		for _, v := range [4]int64{r.XL, r.YL, r.XH, r.YH} {
			if v < 0 {
				v = -v
			}
			if v > ext {
				ext = v
			}
		}
	}
	for _, v := range t.Vias {
		grow(v.BotEnc)
		grow(v.TopEnc)
		for _, c := range v.Cuts {
			grow(c)
		}
	}
	return halo + ext
}

// instExtent is the union of an instance's bounding box and all of its pin
// and obstruction shapes — everything the instance contributes to the global
// engine.
func instExtent(inst *db.Instance) geom.Rect {
	r := inst.BBox()
	for _, pin := range inst.Master.Pins {
		for _, s := range inst.PinShapes(pin) {
			r = r.UnionBBox(s.Rect)
		}
	}
	for _, s := range inst.ObsShapes() {
		r = r.UnionBBox(s.Rect)
	}
	return r
}

// appendClusterKey appends a cluster's identity, its member IDs, to b (IDs
// are never reused, so equal keys mean identical membership).
func appendClusterKey(b []byte, cl db.Cluster) []byte {
	for _, inst := range cl.Insts {
		b = append(strconv.AppendInt(b, int64(inst.ID), 10), ',')
	}
	return b
}

// ECOSession holds the mutable state incremental re-analysis needs across ECO
// batches: the current Result, a tracked global engine kept in sync with the
// design, the engine object IDs and shape extent of each instance, the
// cluster keys of the current placement, and the failed-pin engine with
// every net terminal's verdict. A session is single-writer: Begin/Commit (or
// Apply) must not run concurrently, and the design must not be mutated behind
// its back. Readers of the previous Result are never disturbed — Commit
// merges copy-on-write into a fresh Result.
type ECOSession struct {
	a    *Analyzer
	res  *Result
	eng  *drc.Engine
	qc   *drc.QueryCtx
	objs map[int][]int     // instance ID -> its live engine object IDs
	ext  map[int]geom.Rect // instance ID -> instExtent at its current placement
	keys map[string]bool   // appendClusterKey of every current cluster
	halo int64
	txn  *ECOTxn

	// Failed-pin accounting: fp holds the fixed shapes plus the selected via
	// of every net terminal.
	fp      *drc.Engine
	fpQC    *drc.QueryCtx
	fpObjs  map[int][]int   // instance ID -> its fixed-shape object IDs in fp
	terms   []ecoTerm       // every net terminal the session started with
	termsOf map[int][]int32 // instance ID -> its indexes into terms
	owner   []int32         // fp object ID -> 1 + terms index of its via; 0 for fixed shapes
	live    int             // terminals of instances not deleted (TotalPins)
	failing int             // live terminals that fail (FailedPins)
}

// ecoTerm is one net terminal's state in the failed-pin engine.
type ecoTerm struct {
	termVia
	access bool // has a selected access point; false counts as failed
	obj0   int  // first fp object of the placed via (access with a via)
	failed bool
}

// hasVia reports whether the terminal places a via in the failed-pin engine.
func (tm *ecoTerm) hasVia() bool { return tm.access && tm.via != nil }

// NewECOSession builds a session over an analyzed result. The analyzer must
// be the one that produced res (or an equivalent over the same design); the
// design must still be in the placement res was computed from.
func NewECOSession(a *Analyzer, res *Result) *ECOSession {
	d := a.Design
	s := &ECOSession{
		a: a, res: res, halo: a.ecoHalo(),
		objs:    make(map[int][]int, len(d.Instances)),
		ext:     make(map[int]geom.Rect, len(d.Instances)),
		keys:    make(map[string]bool),
		fpObjs:  make(map[int][]int, len(d.Instances)),
		termsOf: make(map[int][]int32),
	}
	s.eng = a.globalEngine(a.viaCache, func(inst *db.Instance, id int) {
		s.objs[inst.ID] = append(s.objs[inst.ID], id)
	})
	s.qc = s.eng.NewQueryCtx()
	for _, inst := range d.Instances {
		s.ext[inst.ID] = instExtent(inst)
	}
	var kb []byte
	for _, cl := range d.Clusters() {
		kb = appendClusterKey(kb[:0], cl)
		s.keys[string(kb)] = true
	}

	// The failed-pin engine needs no via cache: after this one full pass, a
	// commit re-validates only the terminals an edit can reach.
	s.fp = a.globalEngine(nil, func(inst *db.Instance, id int) {
		s.fpObjs[inst.ID] = append(s.fpObjs[inst.ID], id)
	})
	s.terms = make([]ecoTerm, 0, numNetTerms(d))
	objs := 0
	for _, net := range d.Nets {
		for _, t := range net.Terms {
			tv, ok := a.resolveTerm(res, t.Inst, t.Pin)
			tm := ecoTerm{termVia: tv, access: ok}
			if tm.hasVia() {
				objs += viaObjs(tm.via)
			}
			s.termsOf[t.Inst.ID] = append(s.termsOf[t.Inst.ID], int32(len(s.terms)))
			s.terms = append(s.terms, tm)
		}
	}
	s.fp.Grow(objs)
	for i := range s.terms {
		s.placeVia(int32(i))
	}
	s.live = len(s.terms)
	s.fp.Compact()
	s.fpQC = s.fp.NewQueryCtx()
	for i := range s.terms {
		s.recheck(int32(i))
	}
	return s
}

// placeVia drops terminal i's via (if any) into the failed-pin engine and
// records the via's objects as owned by it.
func (s *ECOSession) placeVia(i int32) {
	tm := &s.terms[i]
	if !tm.hasVia() {
		return
	}
	tm.obj0 = tm.place(s.fp)
	end := tm.obj0 + viaObjs(tm.via)
	if n := len(s.owner); n < end {
		s.owner = append(s.owner, make([]int32, end-n)...)
	}
	for id := tm.obj0; id < end; id++ {
		s.owner[id] = i + 1
	}
}

// recheck re-validates terminal i against the failed-pin engine and keeps
// the failing count in step.
func (s *ECOSession) recheck(i int32) {
	tm := &s.terms[i]
	f := !tm.access || (tm.via != nil && tm.fails(s.fp, s.fpQC))
	if f != tm.failed {
		tm.failed = f
		if f {
			s.failing++
		} else {
			s.failing--
		}
	}
}

// Result returns the session's current result (the merged result after the
// last committed ECO).
func (s *ECOSession) Result() *Result { return s.res }

// Apply runs a whole ECO batch: Begin + Commit.
func (s *ECOSession) Apply(ops []ECOOp) (*Result, *ECOReport, error) {
	t, err := s.Begin(ops)
	if err != nil {
		return nil, nil, err
	}
	res, rep := t.Commit()
	return res, rep, nil
}

// sigChange tracks the membership delta of one unique-instance class during a
// transaction.
type sigChange struct {
	removed map[int]bool
	added   map[int]*db.Instance
}

// ECOTxn is an ECO batch between Begin (design and tracked engine mutated,
// dirty plan computed) and Commit (re-analysis and merge). Between the two,
// the session's Result still describes the pre-ECO analysis; DirtyInstances
// reports which instances it can no longer answer for.
type ECOTxn struct {
	s        *ECOSession
	ops      int
	affected map[int]*db.Instance // moved/swapped/inserted, still present
	deleted  map[int]bool
	dirty    map[int]bool // stale class binding until Commit
	changes  map[string]*sigChange
	curSig   map[int]string // class sig of instances touched so far this txn
	rects    []geom.Rect    // op extents bloated by the ECO halo
}

// Begin validates an ECO script, applies it to the design database and the
// tracked engine, and records the dirty plan. The script is all-or-nothing:
// a validation error mutates nothing. After a successful Begin the session's
// design reflects the ECO but its Result does not — call Commit.
func (s *ECOSession) Begin(ops []ECOOp) (*ECOTxn, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("eco: a transaction is already in flight")
	}
	d := s.a.Design
	if err := validateOps(d, ops); err != nil {
		return nil, err
	}
	t := &ECOTxn{
		s:        s,
		ops:      len(ops),
		affected: make(map[int]*db.Instance),
		deleted:  make(map[int]bool),
		dirty:    make(map[int]bool),
		changes:  make(map[string]*sigChange),
		curSig:   make(map[int]string),
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case ECOMove:
			inst := d.InstByName(op.Inst)
			t.detach(inst)
			applyOpToDesign(d, op)
			t.attach(inst)
		case ECOSwap:
			ia, ib := d.InstByName(op.Inst), d.InstByName(op.Other)
			t.detach(ia)
			t.detach(ib)
			applyOpToDesign(d, op)
			t.attach(ia)
			t.attach(ib)
		case ECOInsert:
			if err := applyOpToDesign(d, op); err != nil {
				// Unreachable after validateOps; fail loudly rather than
				// continue with a half-applied script.
				panic(err)
			}
			t.attach(d.InstByName(op.Inst))
		case ECODelete:
			inst := d.InstByName(op.Inst)
			t.detach(inst)
			applyOpToDesign(d, op)
			delete(t.affected, inst.ID)
			t.deleted[inst.ID] = true
			t.dirty[inst.ID] = true
		}
	}
	s.txn = t
	return t, nil
}

// DirtyInstances reports the instance IDs whose pre-ECO class binding is
// stale until Commit: instances whose unique-instance signature changed (or
// that are new or deleted). Everything else still answers exactly from the
// old Result — a moved instance that kept its signature translates its class
// data to the new position through the captured pivot.
func (t *ECOTxn) DirtyInstances() map[int]bool { return t.dirty }

// change returns the (created-on-demand) membership delta for a class sig.
func (t *ECOTxn) change(sig string) *sigChange {
	ch := t.changes[sig]
	if ch == nil {
		ch = &sigChange{removed: make(map[int]bool), added: make(map[int]*db.Instance)}
		t.changes[sig] = ch
	}
	return ch
}

// currentSig is the class signature an instance is bound to at this point in
// the transaction (its original class before the first touch).
func (t *ECOTxn) currentSig(inst *db.Instance) string {
	if sig, ok := t.curSig[inst.ID]; ok {
		return sig
	}
	if ua := t.s.res.ByInstance[inst.ID]; ua != nil {
		return ua.UI.Signature()
	}
	// Not bound to any analyzed class (quarantined or never analyzed): use
	// the live signature so the removal lands on a no-op change entry.
	return t.s.a.Design.InstanceSignature(inst)
}

// detach records the instance leaving its current placement: extent into the
// dirty region, membership out of its class, shapes out of the tracked
// engine.
func (t *ECOTxn) detach(inst *db.Instance) {
	t.rects = append(t.rects, t.s.ext[inst.ID].Bloat(t.s.halo))
	delete(t.s.ext, inst.ID)
	ch := t.change(t.currentSig(inst))
	delete(ch.added, inst.ID)
	ch.removed[inst.ID] = true
	for _, id := range t.s.objs[inst.ID] {
		t.s.eng.Remove(id)
	}
	delete(t.s.objs, inst.ID)
}

// attach records the instance arriving at its new placement (the inverse of
// detach) and classifies it as affected; it is genuinely dirty mid-ECO only
// when its class binding changed.
func (t *ECOTxn) attach(inst *db.Instance) {
	ext := instExtent(inst)
	t.s.ext[inst.ID] = ext
	t.rects = append(t.rects, ext.Bloat(t.s.halo))
	sig := t.s.a.Design.InstanceSignature(inst)
	t.change(sig).added[inst.ID] = inst
	t.curSig[inst.ID] = sig
	t.s.objs[inst.ID] = t.s.a.addInstanceShapes(t.s.eng, inst)
	t.affected[inst.ID] = inst
	if old := t.s.res.ByInstance[inst.ID]; old == nil || old.UI.Signature() != sig {
		t.dirty[inst.ID] = true
	}
}

// ECOReport summarizes what one committed ECO batch re-computed.
type ECOReport struct {
	Ops               int `json:"ops"`
	AffectedInstances int `json:"affected_instances"`
	DeletedInstances  int `json:"deleted_instances"`
	TotalClasses      int `json:"total_classes"`
	ReanalyzedClasses int `json:"reanalyzed_classes"`
	NewClasses        int `json:"new_classes"`
	RemovedClasses    int `json:"removed_classes"`
	TotalClusters     int `json:"total_clusters"`
	DirtyClusters     int `json:"dirty_clusters"`
	DirtyRects        int `json:"dirty_rects"`
	RecheckedPins     int `json:"rechecked_pins"`
}

// offsOrderKey renders class offsets in the comparison format
// Design.UniqueInstances sorts by.
func offsOrderKey(offs []int64) string { return string(db.AppendOffsetsKey(nil, offs)) }

func sortedMembers(set map[int]*db.Instance) []*db.Instance {
	out := make([]*db.Instance, 0, len(set))
	for _, inst := range set {
		out = append(out, inst)
	}
	// IDs are handed out monotonically and instance removal preserves slice
	// order, so ascending ID equals design order — the member order a fresh
	// UniqueInstances partition produces.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Commit re-analyzes the dirty classes, merges copy-on-write into a fresh
// Result, re-selects the dirty clusters on the tracked engine, and brings the
// failed-pin accounting up to date (recount). The previous Result is left
// fully intact for concurrent readers. The merged Result is byte-identical
// (snapshot encoding, timings zeroed) to a fresh full analysis of the
// mutated design.
func (t *ECOTxn) Commit() (*Result, *ECOReport) {
	s := t.s
	a := s.a
	d := a.Design
	old := s.res
	rep := &ECOReport{
		Ops:               t.ops,
		AffectedInstances: len(t.affected),
		DeletedInstances:  len(t.deleted),
		DirtyRects:        len(t.rects),
	}

	res := &Result{
		CorrID:     old.CorrID,
		ByInstance: make(map[int]*UniqueAccess, len(old.ByInstance)),
		Selected:   make(map[int]int, len(old.Selected)),
		Health:     old.Health,
	}

	// Merge pass 1: carry or rebuild the existing classes. repick collects
	// the instances whose pattern list may have changed under them: every
	// member of a re-analyzed or new class, and every instance that joined
	// a carried class (its old pick indexes its previous class's patterns).
	uaBySig := make(map[string]*UniqueAccess, len(old.Unique))
	repick := make(map[int]*db.Instance)
	for _, ua := range old.Unique {
		sig := ua.UI.Signature()
		uaBySig[sig] = ua
		ch := t.changes[sig]
		if ch == nil {
			res.Unique = append(res.Unique, ua)
			continue
		}
		memberSet := make(map[int]*db.Instance, len(ua.UI.Insts)+len(ch.added))
		for _, m := range ua.UI.Insts {
			if !ch.removed[m.ID] {
				memberSet[m.ID] = m
			}
		}
		for id, m := range ch.added {
			memberSet[id] = m
		}
		if len(memberSet) == 0 {
			rep.RemovedClasses++
			continue
		}
		members := sortedMembers(memberSet)
		ui := &db.UniqueInstance{Master: ua.UI.Master, Orient: ua.UI.Orient, Offsets: ua.UI.Offsets, Insts: members}
		if members[0] == ua.UI.Insts[0] && members[0].Pos == ua.PivotPos {
			// Pivot identity and position unchanged: the analysis (and its
			// serialized bytes — membership is not serialized) is still exact.
			// Copy-on-write so readers of the old Result see the old members.
			cp := *ua
			cp.UI = ui
			res.Unique = append(res.Unique, &cp)
			for id, m := range ch.added {
				repick[id] = m
			}
		} else {
			// The pivot moved or a lower-ID member took over: re-analyze at
			// the new pivot. Translating the stored APs instead would not be
			// byte-identical (PinAccess.SortKey is a float over absolute
			// pivot coordinates).
			res.Unique = append(res.Unique, a.AnalyzeUnique(ui))
			rep.ReanalyzedClasses++
			for _, m := range members {
				repick[m.ID] = m
			}
		}
	}

	// Merge pass 2: classes for signatures the design never had. Sorted for
	// a deterministic analysis order.
	var newSigs []string
	for sig, ch := range t.changes {
		if uaBySig[sig] == nil && len(ch.added) > 0 {
			newSigs = append(newSigs, sig)
		}
	}
	sort.Strings(newSigs)
	for _, sig := range newSigs {
		members := sortedMembers(t.changes[sig].added)
		pivot := members[0]
		ui := &db.UniqueInstance{Master: pivot.Master, Orient: pivot.Orient, Offsets: d.OffsetsOf(pivot), Insts: members}
		res.Unique = append(res.Unique, a.AnalyzeUnique(ui))
		rep.ReanalyzedClasses++
		rep.NewClasses++
		for _, m := range members {
			repick[m.ID] = m
		}
	}

	// Restore the fresh-partition class order (master, orient, offsets).
	sort.Slice(res.Unique, func(i, j int) bool {
		x, y := res.Unique[i].UI, res.Unique[j].UI
		if x.Master.Name != y.Master.Name {
			return x.Master.Name < y.Master.Name
		}
		if x.Orient != y.Orient {
			return x.Orient < y.Orient
		}
		return offsOrderKey(x.Offsets) < offsOrderKey(y.Offsets)
	})
	rep.TotalClasses = len(res.Unique)

	// Rebuild the aggregates exactly as RunContext does.
	for _, ua := range res.Unique {
		for _, inst := range ua.UI.Insts {
			res.ByInstance[inst.ID] = ua
		}
		res.Stats.NumUnique++
		res.Stats.TotalAPs += ua.TotalAPs()
		res.Stats.PatternsBuilt += len(ua.Patterns)
		res.Stats.PatternsDropped += ua.DroppedPatterns
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				if ap.OffTrack() {
					res.Stats.OffTrackAPs++
				}
			}
		}
	}

	// Selection: carry the old picks, reset defaults for every instance to
	// re-pick (a macro belongs to no cluster, so the default is its pick),
	// then re-run the DP over the dirty clusters. Clean clusters provably
	// keep picks equal to a fresh run's.
	for id, ni := range old.Selected {
		if !t.deleted[id] {
			res.Selected[id] = ni
		}
	}
	// touched collects every instance whose selected access may differ from
	// the pre-ECO result: the re-placed ones, the ones to re-pick and the
	// members of re-selected clusters.
	touched := make(map[int]*db.Instance, len(t.affected)+len(repick))
	for id, inst := range t.affected {
		touched[id] = inst
	}
	for id, inst := range repick {
		touched[id] = inst
		if ua := res.ByInstance[id]; ua != nil && len(ua.Patterns) > 0 {
			res.Selected[id] = 0
		} else {
			delete(res.Selected, id)
		}
	}
	clusters := d.Clusters()
	rep.TotalClusters = len(clusters)
	keys := make(map[string]bool, len(clusters))
	var kb []byte
	for _, cl := range clusters {
		kb = appendClusterKey(kb[:0], cl)
		k := string(kb)
		keys[k] = true
		// A membership no pre-ECO cluster had is a split or merge, which
		// re-couples the DP chain.
		if s.keys[k] && !t.clusterDirty(cl, repick) {
			continue
		}
		rep.DirtyClusters++
		for id, ni := range a.selectForCluster(res, s.eng, cl, s.qc) {
			res.Selected[id] = ni
		}
		for _, inst := range cl.Insts {
			touched[inst.ID] = inst
		}
	}
	s.keys = keys

	rep.RecheckedPins = t.recount(res, touched)
	res.Stats.TotalPins = s.live
	res.Stats.FailedPins = s.failing
	s.res = res
	s.txn = nil
	return res, rep
}

// clusterDirty decides whether a cluster whose membership predates the ECO
// must re-run its Step-3 DP. The DP couples every member through the chain
// of edge terms, so any change inside the cluster (or near enough to change
// a vertex cost) dirties the whole cluster — but nothing outside it.
func (t *ECOTxn) clusterDirty(cl db.Cluster, repick map[int]*db.Instance) bool {
	for _, inst := range cl.Insts {
		if t.affected[inst.ID] != nil || repick[inst.ID] != nil {
			return true
		}
	}
	for _, inst := range cl.Insts {
		ext := t.s.ext[inst.ID]
		for _, r := range t.rects {
			if ext.Touches(r) {
				return true
			}
		}
	}
	return false
}

// recount brings the failed-pin engine and the terminal verdicts in step
// with res and returns how many terminals it re-validated. touched holds
// every instance whose selected access may have changed.
//
// A terminal's verdict depends only on its own via, position, net and pin
// shapes and on the engine objects its via check can see. The check queries
// each via shape's own layer within the largest rule halo around it, and
// ecoHalo bounds that halo, so any removed or added object that can change
// the verdict lies within ecoHalo of one of the terminal's via shapes on the
// same layer. Querying the engine around each mutated object therefore finds
// every terminal whose verdict can change; the rest keep theirs, and the
// counts equal a full CountFailedPins over the mutated design.
func (t *ECOTxn) recount(res *Result, touched map[int]*db.Instance) int {
	s := t.s
	var mutated []drc.Obj
	note := func(id int) { mutated = append(mutated, *s.fp.Obj(id)) }
	remove := func(id int) {
		note(id)
		s.fp.Remove(id)
	}
	removeVia := func(tm *ecoTerm) {
		if tm.hasVia() {
			for id := tm.obj0; id < tm.obj0+viaObjs(tm.via); id++ {
				remove(id)
			}
		}
	}
	recheck := make(map[int32]bool)

	// Deleted instances take their shapes and their terminals with them.
	for id := range t.deleted {
		for _, oid := range s.fpObjs[id] {
			remove(oid)
		}
		delete(s.fpObjs, id)
		for _, i := range s.termsOf[id] {
			tm := &s.terms[i]
			removeVia(tm)
			if tm.failed {
				tm.failed = false
				s.failing--
			}
			s.live--
		}
		delete(s.termsOf, id)
	}
	// Re-placed instances move their shapes; their pin shapes join every
	// own terminal's check, so those are re-validated regardless.
	for id, inst := range t.affected {
		for _, oid := range s.fpObjs[id] {
			remove(oid)
		}
		ids := s.a.addInstanceShapes(s.fp, inst)
		for _, oid := range ids {
			note(oid)
		}
		s.fpObjs[id] = ids
		for _, i := range s.termsOf[id] {
			recheck[i] = true
		}
	}
	// Replace exactly the vias whose selected (via, position) changed.
	for id, inst := range touched {
		for _, i := range s.termsOf[id] {
			tm := &s.terms[i]
			tv, ok := s.a.resolveTerm(res, inst, tm.pin)
			if ok == tm.access && tv == tm.termVia {
				continue
			}
			removeVia(tm)
			tm.termVia, tm.access = tv, ok
			s.placeVia(i)
			if tm.hasVia() {
				for oid := tm.obj0; oid < tm.obj0+viaObjs(tm.via); oid++ {
					note(oid)
				}
			}
			recheck[i] = true
		}
	}
	// Every terminal whose via-check window can reach a mutated object.
	for i := range mutated {
		o := &mutated[i]
		win := o.Rect.Bloat(s.halo)
		var ids []int
		if o.CutBelow > 0 {
			ids = s.fp.QueryCutCtx(o.CutBelow, win, s.fpQC)
		} else {
			ids = s.fp.QueryMetalCtx(o.MetalLayer, win, s.fpQC)
		}
		for _, id := range ids {
			if id < len(s.owner) && s.owner[id] > 0 {
				recheck[s.owner[id]-1] = true
			}
		}
	}
	for i := range recheck {
		s.recheck(i)
	}
	return len(recheck)
}
