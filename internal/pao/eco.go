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
//   - row and class scoping: the session keeps every row's CORE members and
//     clusters (rowIndex) and re-splits only the rows an op left or entered,
//     with the helper Design.Clusters uses; only those clusters, the ones
//     holding an affected or re-picked instance, and the ones near a dirty
//     rect are tested for dirtiness. The new Result is a patched copy of the
//     old one: cloned instance maps with only the changed classes' members
//     rewritten, the class list spliced, and the stats moved by each changed
//     class (foldClassStats).
//   - engine scoping: the session keeps one global engine across ECOs, as
//     RunContext does: the fixed shapes plus every net terminal's selected
//     via, with each terminal's verdict on record. Begin removes and re-adds
//     exactly the mutated instances' shapes. Step 3 reads the engine through
//     a via-blind context (drc.Engine.NewFixedQueryCtx), so its vertex costs
//     see the fixed shapes only. The shared via-verdict cache needs no
//     update: it is content-addressed, so a mutated environment encodes to a
//     new key (see drc.ViaCache).
//   - failed-pin scoping: a commit replaces only the vias whose (via,
//     position) changed, then re-validates the terminals of moved instances,
//     the terminals whose via changed, and every terminal whose via-check
//     window can reach a removed or added object. A via check queries only
//     within the ECO halo of the via's own shapes on their own layers, so
//     querying the engine around each mutated object finds them all (see
//     recount).
//
// The paper motivates all of this with placement optimization, "where
// frequent changes in placement require a tremendous amount of inter-cell pin
// access analysis" (Section IV-B): the re-analysis, re-selection, failed-pin
// recount and design-hash rendering of an ECO scale with the edit, not with
// the design. Three design-sized passes are left, each a flat copy or scan:
// cloning the two instance maps, SHA-256 over the kept hash bytes, and, on a
// delete, db.Design.RemoveInstance's walk over every net.

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

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

// ECOSession holds the mutable state incremental re-analysis needs across ECO
// batches: the current Result and its signature -> class index, the global
// engine kept in sync with the design, the engine object IDs and shape
// extent of each instance, the row index of the current placement, the
// design-hash parts, and the failed-pin ledger with every net terminal's
// verdict, grouped by instance. A session is single-writer: Begin/Commit (or
// Apply) and DesignHash must not run concurrently, and the design must not be
// mutated behind its back. Readers of the previous Result are never
// disturbed — Commit patches a copy into a fresh Result.
type ECOSession struct {
	a     *Analyzer
	res   *Result
	bySig map[string]*UniqueAccess // class signature -> class of res
	eng   *drc.Engine              // the fixed shapes plus the ledger's vias
	qc    *drc.QueryCtx            // Step 3's via-blind view of eng
	objs  []int32                  // first-object table of eng (see newFirsts)
	ext   []geom.Rect              // instance ID -> instExtent at its current placement
	rows  rowIndex
	hash  hashParts // built by the first DesignHash call
	halo  int64
	txn   *ECOTxn

	// Failed-pin accounting: the embedded ledger covers every terminal the
	// session started with, grouped by instance (an instance inserted later
	// has none; a deleted one's run is dropped, and live with it), its vias
	// are placed in eng, and its rechecks read eng through lqc, a plain
	// context.
	lqc *drc.QueryCtx
	pinLedger
	owner []int32 // eng object ID -> 1 + terms index of its via; 0 for fixed shapes
}

// NewECOSession builds a session over an analyzed result. The analyzer must
// be the one that produced res (or an equivalent over the same design); the
// design must still be in the placement res was computed from.
func NewECOSession(a *Analyzer, res *Result) *ECOSession {
	d := a.Design
	s := &ECOSession{
		a: a, res: res, halo: a.ecoHalo(),
		bySig: make(map[string]*UniqueAccess, len(res.Unique)),
		ext:   make([]geom.Rect, len(a.netOf)),
	}
	for _, ua := range res.Unique {
		s.bySig[ua.UI.Signature()] = ua
	}
	for _, inst := range d.Instances {
		s.ext[inst.ID] = instExtent(inst)
	}
	s.rows = newRowIndex(d, s.ext)

	// One engine, as in RunContext: the ledger is resolved first, so the
	// engine is sized for the fixed shapes plus exactly its vias before the
	// first Add, and checked with the analyzer's via cache and the engine's
	// first-object table, per instance. After this one full pass, a commit
	// re-validates only the terminals an edit can reach, one at a time.
	var objs int
	s.pinLedger, objs = a.resolveLedger(context.TODO(), res)
	s.eng, s.objs = a.globalEngine(objs)
	a.checkLedger(context.TODO(), &s.pinLedger, s.eng, s.objs, objs, a.queryCtxs())
	s.qc, s.lqc = s.eng.NewFixedQueryCtx(), s.eng.NewQueryCtx()
	for i := range s.terms {
		s.own(int32(i))
	}
	return s
}

// own records terminal i's placed via objects (if any) as owned by it.
func (s *ECOSession) own(i int32) {
	tm := &s.terms[i]
	if !tm.hasVia() {
		return
	}
	sp := tm.viaSpan()
	end := int(sp.first + sp.n)
	if n := len(s.owner); n < end {
		s.owner = append(s.owner, make([]int32, end-n)...)
	}
	for id := int(sp.first); id < end; id++ {
		s.owner[id] = i + 1
	}
}

// recheck re-validates terminal i against the engine with every via placed.
func (s *ECOSession) recheck(i int32) {
	tm := &s.terms[i]
	s.mark(tm, !tm.access || (tm.via != nil && tm.fails(s.eng, s.lqc)))
}

// Result returns the session's current result (the merged result after the
// last committed ECO).
func (s *ECOSession) Result() *Result { return s.res }

// DesignHash returns DesignHash of the session's design; call it outside a
// transaction. The first call renders the design into hashParts. After that,
// a commit that only moves instances re-renders their lines, one with an
// insert or a delete has the next call render the design again, and each
// call is one pass of SHA-256 over the kept bytes.
func (s *ECOSession) DesignHash() string {
	h := &s.hash
	if h.head == nil {
		h.build(s.a.Design)
	}
	sum := sha256.New()
	sum.Write(h.head)
	sum.Write(h.inst)
	sum.Write(h.tail)
	return hex.EncodeToString(sum.Sum(nil))
}

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

// ECOTxn is an ECO batch between Begin (design and engine shapes mutated,
// dirty plan computed) and Commit (re-analysis and merge). Between the two,
// the session's Result still describes the pre-ECO analysis; DirtyInstances
// reports which instances it can no longer answer for.
type ECOTxn struct {
	s          *ECOSession
	ops        int
	affected   map[int]*db.Instance // moved/swapped/inserted, still present
	deleted    map[int]bool
	structural bool         // an insert or a delete: the instance list or the nets changed
	dirty      map[int]bool // stale class binding until Commit
	changes    map[string]*sigChange
	curSig     map[int]string     // class sig of instances touched so far this txn
	rects      []geom.Rect        // op extents bloated by the ECO halo
	rows       map[db.RowKey]bool // rows an op left or entered
	before     []drc.Obj          // the pre-ECO shapes of every instance detached

	// Set by Commit: the instances to re-pick and the clusters re-selected.
	repick     map[int]*db.Instance
	reselected []db.Cluster
}

// Begin validates an ECO script, applies it to the design database, the
// engine's instance shapes and the row index, and records the dirty plan.
// The script is all-or-nothing: a validation error mutates nothing. After a
// successful Begin the session's design reflects the ECO but its Result does
// not — call Commit.
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
		rows:     make(map[db.RowKey]bool),
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
			inst := d.InstByName(op.Inst)
			s.a.addNets(inst)
			t.attach(inst)
			t.structural = true
		case ECODelete:
			inst := d.InstByName(op.Inst)
			t.detach(inst)
			applyOpToDesign(d, op)
			delete(t.affected, inst.ID)
			t.deleted[inst.ID] = true
			t.dirty[inst.ID] = true
			t.structural = true
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
// dirty region, membership out of its class and its row, shapes out of the
// engine. At the first detach of an instance placed before the transaction
// (no attach yet, so no curSig entry), its shapes go into t.before: the
// ledger's verdicts saw them there, and never any placement in between.
func (t *ECOTxn) detach(inst *db.Instance) {
	t.rects = append(t.rects, t.s.ext[inst.ID].Bloat(t.s.halo))
	if k, ok := t.s.rows.leave(inst); ok {
		t.rows[k] = true
	}
	var note func(id int)
	if _, again := t.curSig[inst.ID]; !again {
		note = func(id int) { t.before = append(t.before, t.s.eng.Obj(id)) }
	}
	ch := t.change(t.currentSig(inst))
	delete(ch.added, inst.ID)
	ch.removed[inst.ID] = true
	spanIn(t.s.objs, inst).remove(t.s.eng, note)
	t.s.objs[inst.ID] = -1
}

// attach records the instance arriving at its new placement (the inverse of
// detach) and classifies it as affected; it is genuinely dirty mid-ECO only
// when its class binding changed.
func (t *ECOTxn) attach(inst *db.Instance) {
	ext := instExtent(inst)
	if n := inst.ID + 1; n > len(t.s.ext) {
		t.s.ext = append(t.s.ext, make([]geom.Rect, n-len(t.s.ext))...)
	}
	t.s.ext[inst.ID] = ext
	t.rects = append(t.rects, ext.Bloat(t.s.halo))
	if k, ok := t.s.rows.enter(inst, ext); ok {
		t.rows[k] = true
	}
	sig := t.s.a.Design.InstanceSignature(inst)
	t.change(sig).added[inst.ID] = inst
	t.curSig[inst.ID] = sig
	if n := inst.ID + 1; n > len(t.s.objs) {
		t.s.objs = append(t.s.objs, newFirsts(n-len(t.s.objs))...)
	}
	objs, _ := t.s.a.addInstanceShapes(t.s.eng, inst, nil)
	t.s.objs[inst.ID] = objs.first
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

// mergeMembers returns a class's members after its change: the old members
// that did not leave, merged in ascending ID (design) order with the ones
// that joined. An old member can join only after it left (detach precedes
// attach), so the two never share an instance.
func mergeMembers(old []*db.Instance, ch *sigChange) []*db.Instance {
	add := sortedMembers(ch.added)
	out := make([]*db.Instance, 0, len(old)+len(add))
	j := 0
	for _, m := range old {
		if ch.removed[m.ID] {
			continue
		}
		for ; j < len(add) && add[j].ID < m.ID; j++ {
			out = append(out, add[j])
		}
		out = append(out, m)
	}
	return append(out, add[j:]...)
}

// classCmp orders classes as Design.UniqueInstances does: by master name,
// orientation, then offsets compared as their AppendOffsetsKey strings.
func classCmp(x, y *UniqueAccess) int {
	if c := strings.Compare(x.UI.Master.Name, y.UI.Master.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(x.UI.Orient, y.UI.Orient); c != 0 {
		return c
	}
	var bx, by [128]byte
	return bytes.Compare(db.AppendOffsetsKey(bx[:0], x.UI.Offsets), db.AppendOffsetsKey(by[:0], y.UI.Offsets))
}

// Commit re-analyzes the dirty classes, patches a copy of the Result,
// re-selects the dirty clusters through the engine's via-blind view, and
// brings the failed-pin accounting up to date (recount). The previous Result
// is left fully intact for concurrent readers. The patched Result is
// byte-identical (snapshot encoding, timings zeroed) to a fresh full
// analysis of the mutated design, and so are its class memberships and
// instance bindings.
func (t *ECOTxn) Commit() (*Result, *ECOReport) {
	s := t.s
	old := s.res
	rep := &ECOReport{
		Ops:               t.ops,
		AffectedInstances: len(t.affected),
		DeletedInstances:  len(t.deleted),
		DirtyRects:        len(t.rects),
	}

	// Patch copies of the old maps: only the deleted instances and the
	// members of changed classes differ. The stats start from the old
	// class-derived counts and move by each changed class.
	res := &Result{
		ByInstance: maps.Clone(old.ByInstance),
		Selected:   maps.Clone(old.Selected),
		Stats:      old.Stats.Counts(),
		Health:     old.Health,
	}
	res.Stats.DirtyAPs = 0 // a separate recount (CountDirtyAPs) no commit runs
	for id := range t.deleted {
		delete(res.ByInstance, id)
		delete(res.Selected, id)
	}
	t.repick = make(map[int]*db.Instance)
	res.Unique = t.patchClasses(res, rep)
	rep.TotalClasses = len(res.Unique)

	// Selection: reset the default for every instance to re-pick (a macro
	// belongs to no cluster, so the default is its pick), then re-run the DP
	// over the dirty clusters. Clean clusters provably keep picks equal to a
	// fresh run's. touched collects every instance whose selected access may
	// differ from the pre-ECO result: the re-placed ones, the ones to re-pick
	// and the members of re-selected clusters.
	touched := make(map[int]*db.Instance, len(t.affected)+len(t.repick))
	for id, inst := range t.affected {
		touched[id] = inst
	}
	for id, inst := range t.repick {
		touched[id] = inst
		if ua := res.ByInstance[id]; ua != nil && len(ua.Patterns) > 0 {
			res.Selected[id] = 0
		} else {
			delete(res.Selected, id)
		}
	}
	t.reselected = t.dirtyClusters()
	rep.TotalClusters = s.rows.total
	rep.DirtyClusters = len(t.reselected)
	var dp dpScratch
	for _, cl := range t.reselected {
		for _, p := range s.a.selectForCluster(res, s.eng, s.objs, cl, s.qc, &dp) {
			res.Selected[p.id] = p.pattern
		}
		for _, inst := range cl.Insts {
			touched[inst.ID] = inst
		}
	}

	rep.RecheckedPins = t.recount(res, touched)
	res.Stats.TotalPins = s.live
	res.Stats.FailedPins = s.failing
	if t.structural {
		s.hash.head = nil // the next DesignHash renders the design again
	} else if s.hash.head != nil {
		for _, inst := range t.affected {
			s.hash.rewrite(inst)
		}
	}
	s.res = res
	s.txn = nil
	return res, rep
}

// patchClasses rebuilds every changed class, in signature order, into res
// (instance bindings and stats) and the session's class index, and returns
// the old class list with each changed class in its slot, removed ones
// dropped and new ones inserted at their partition positions. It collects
// in t.repick the instances whose pattern list may have changed under them:
// every member of a re-analyzed or new class, and every instance that joined
// a carried class (its old pick indexes its previous class's patterns).
func (t *ECOTxn) patchClasses(res *Result, rep *ECOReport) []*UniqueAccess {
	s := t.s
	a := s.a
	sigs := make([]string, 0, len(t.changes))
	for sig := range t.changes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	uniq := slices.Clone(s.res.Unique)
	var added []*UniqueAccess
	for _, sig := range sigs {
		ch := t.changes[sig]
		ua := s.bySig[sig]
		var members []*db.Instance
		if ua != nil {
			members = mergeMembers(ua.UI.Insts, ch)
		} else {
			members = sortedMembers(ch.added)
		}
		if len(members) == 0 {
			if ua != nil { // every member left: the class drops out
				rep.RemovedClasses++
				foldClassStats(&res.Stats, ua, -1)
				delete(s.bySig, sig)
				uniq[classSlot(s.res.Unique, ua)] = nil
			}
			continue
		}
		ui := &db.UniqueInstance{Insts: members}
		if ua != nil {
			ui.Master, ui.Orient, ui.Offsets = ua.UI.Master, ua.UI.Orient, ua.UI.Offsets
		} else {
			p := members[0]
			ui.Master, ui.Orient, ui.Offsets = p.Master, p.Orient, a.Design.OffsetsOf(p)
		}
		var nu *UniqueAccess
		if ua != nil && members[0] == ua.UI.Insts[0] && members[0].Pos == ua.PivotPos {
			// Pivot identity and position unchanged: the analysis (and its
			// serialized bytes — membership is not serialized) is still
			// exact. Copy-on-write so readers of the old Result see the old
			// members.
			cp := *ua
			cp.UI = ui
			nu = &cp
			for id, m := range ch.added {
				t.repick[id] = m
			}
		} else {
			// A new class, or the pivot moved or a lower-ID member took
			// over: analyze at the new pivot. Translating the stored APs
			// instead would not be byte-identical (PinAccess.SortKey is a
			// float over absolute pivot coordinates).
			nu = a.AnalyzeUnique(ui)
			rep.ReanalyzedClasses++
			foldClassStats(&res.Stats, nu, 1)
			for _, m := range members {
				t.repick[m.ID] = m
			}
			if ua == nil {
				rep.NewClasses++
				added = append(added, nu)
			} else {
				foldClassStats(&res.Stats, ua, -1)
			}
		}
		if ua != nil {
			uniq[classSlot(s.res.Unique, ua)] = nu
		}
		s.bySig[sig] = nu
		for _, m := range members {
			res.ByInstance[m.ID] = nu
		}
	}
	uniq = slices.DeleteFunc(uniq, func(ua *UniqueAccess) bool { return ua == nil })
	for _, nu := range added {
		i, _ := slices.BinarySearchFunc(uniq, nu, classCmp)
		uniq = slices.Insert(uniq, i, nu)
	}
	return uniq
}

// classSlot returns the index of ua in uniq, a class list in partition order.
func classSlot(uniq []*UniqueAccess, ua *UniqueAccess) int {
	i, ok := slices.BinarySearchFunc(uniq, ua, classCmp)
	if !ok || uniq[i] != ua {
		panic("pao: ECO session result is not in partition order")
	}
	return i
}

// dirtyClusters re-splits the rows an op left or entered and returns, in
// first-member ID order, the clusters whose Step-3 DP must re-run. A cluster
// is dirty when no pre-ECO cluster had its members (a split or merge
// re-couples the DP chain) or when clusterDirty holds. Only three kinds of
// cluster can be: the re-split ones, those holding an affected or re-picked
// instance, and those near a dirty rect; every other cluster kept its
// members and is clean.
func (t *ECOTxn) dirtyClusters() []db.Cluster {
	x := &t.s.rows
	// known needs the pre-ECO clusters, so every row is split before any
	// is installed.
	rows := make([]*ecoRow, 0, len(t.rows))
	for k := range t.rows {
		rows = append(rows, x.rows[k])
	}
	splits := make([][]db.Cluster, len(rows))
	unknown := make(map[int]bool)
	for i, row := range rows {
		splits[i] = x.split(row)
		for _, cl := range splits[i] {
			if !x.known(cl) {
				unknown[cl.Insts[0].ID] = true
			}
		}
	}
	for i, row := range rows {
		x.install(row, splits[i], t.s.ext)
	}
	for id := range t.deleted {
		delete(x.clusterOf, id)
	}

	cand := make(map[int]db.Cluster) // first member ID -> cluster
	add := func(cl db.Cluster) { cand[cl.Insts[0].ID] = cl }
	for _, cls := range splits {
		for _, cl := range cls {
			add(cl)
		}
	}
	for _, set := range []map[int]*db.Instance{t.affected, t.repick} {
		for id := range set {
			if insts := x.clusterOf[id]; insts != nil {
				add(db.Cluster{Insts: insts})
			}
		}
	}
	for _, r := range t.rects {
		x.near(r, add)
	}
	var dirty []db.Cluster
	for id, cl := range cand {
		if unknown[id] || t.clusterDirty(cl) {
			dirty = append(dirty, cl)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Insts[0].ID < dirty[j].Insts[0].ID })
	return dirty
}

// clusterDirty decides whether a cluster whose membership predates the ECO
// must re-run its Step-3 DP. The DP couples every member through the chain
// of edge terms, so any change inside the cluster (or near enough to change
// a vertex cost) dirties the whole cluster — but nothing outside it.
func (t *ECOTxn) clusterDirty(cl db.Cluster) bool {
	for _, inst := range cl.Insts {
		if t.affected[inst.ID] != nil || t.repick[inst.ID] != nil {
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

// recount brings the ledger's vias and the terminal verdicts in step with
// res and returns how many terminals it re-validated. touched holds every
// instance whose selected access may have changed.
//
// A terminal's verdict depends only on its own via, position, net and pin
// shapes and on the engine objects its via check can see. The check queries
// each via shape's own layer within the largest rule halo around it, and
// ecoHalo bounds that halo, so any removed or added object that can change
// the verdict lies within ecoHalo of one of the terminal's via shapes on the
// same layer. The mutated objects are the pre-ECO shapes of the instances
// Begin detached (t.before), the final shapes of the re-placed ones and the
// replaced vias; querying the engine around each finds every terminal whose
// verdict can change. The rest keep theirs, and the counts equal a full
// CountFailedPins over the mutated design.
func (t *ECOTxn) recount(res *Result, touched map[int]*db.Instance) int {
	s := t.s
	mutated := t.before
	note := func(id int) { mutated = append(mutated, s.eng.Obj(id)) }
	removeVia := func(tm *pinTerm) {
		if tm.hasVia() {
			tm.viaSpan().remove(s.eng, note)
		}
	}
	recheck := make(map[int32]bool)

	// Deleted instances take their terminals with them.
	for id := range t.deleted {
		lo, hi := s.run(id)
		for i := lo; i < hi; i++ {
			tm := &s.terms[i]
			removeVia(tm)
			s.mark(tm, false)
			s.live--
		}
		s.drop(id)
	}
	// Re-placed instances: their pin shapes join every own terminal's check,
	// so those are re-validated regardless.
	for id, inst := range t.affected {
		sp := spanIn(s.objs, inst)
		for oid := sp.first; oid < sp.first+sp.n; oid++ {
			note(int(oid))
		}
		lo, hi := s.run(id)
		for i := lo; i < hi; i++ {
			recheck[i] = true
		}
	}
	// Replace exactly the vias whose selected (via, position) changed.
	for id, inst := range touched {
		lo, hi := s.run(id)
		for i := lo; i < hi; i++ {
			tm := &s.terms[i]
			tv, ok := s.a.resolveTerm(res, inst, tm.pin)
			if ok == tm.access && tv == tm.termVia {
				continue
			}
			removeVia(tm)
			tm.termVia, tm.access = tv, ok
			if tm.hasVia() {
				tm.obj0 = tm.place(s.eng)
				s.own(i)
				sp := tm.viaSpan()
				for oid := sp.first; oid < sp.first+sp.n; oid++ {
					note(int(oid))
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
			ids = s.eng.QueryCutCtx(o.CutBelow, win, s.lqc)
		} else {
			ids = s.eng.QueryMetalCtx(o.MetalLayer, win, s.lqc)
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

// ecoRow is one clustering row of the session: its CORE members in ascending
// ID (design) order, the clusters they form, and each cluster's extent (the
// union of its members' instExtent).
type ecoRow struct {
	members  []*db.Instance
	clusters []db.Cluster
	ext      []geom.Rect
}

// rowIndex is the session's row-local form of d.Clusters(): every row's
// members and clusters, the row keys in RowKey order, the cluster of every
// CORE instance, and how far any instance's extent has reached below and
// above its row's y. A commit re-splits only the rows an op left or entered,
// with the helper Clusters uses, and finds the clusters near a dirty rect
// from the rows in its y window.
type rowIndex struct {
	rows      map[db.RowKey]*ecoRow
	keys      []db.RowKey
	clusterOf map[int][]*db.Instance // instance ID -> Insts of its cluster
	total     int                    // clusters over all rows
	below     int64                  // max inst.Pos.Y - ext.YL
	above     int64                  // max ext.YH - inst.Pos.Y
}

// newRowIndex indexes the design's current placement.
func newRowIndex(d *db.Design, ext []geom.Rect) rowIndex {
	x := rowIndex{
		rows:      make(map[db.RowKey]*ecoRow),
		clusterOf: make(map[int][]*db.Instance, len(d.Instances)),
	}
	for _, inst := range d.Instances {
		x.enter(inst, ext[inst.ID])
	}
	for _, row := range x.rows {
		x.install(row, x.split(row), ext)
	}
	return x
}

// byID orders instances by ID.
func byID(m *db.Instance, id int) int { return cmp.Compare(m.ID, id) }

// leave takes a CORE instance out of its row's members; it reports the row
// and false for any other instance.
func (x *rowIndex) leave(inst *db.Instance) (db.RowKey, bool) {
	k, ok := db.RowOf(inst)
	if !ok {
		return k, false
	}
	row := x.rows[k]
	if i, found := slices.BinarySearchFunc(row.members, inst.ID, byID); found {
		row.members = slices.Delete(row.members, i, i+1)
	}
	return k, true
}

// enter adds a CORE instance, whose extent is ext, to its row's members; it
// reports the row and false for any other instance.
func (x *rowIndex) enter(inst *db.Instance, ext geom.Rect) (db.RowKey, bool) {
	k, ok := db.RowOf(inst)
	if !ok {
		return k, false
	}
	row := x.rows[k]
	if row == nil {
		row = &ecoRow{}
		x.rows[k] = row
		i := sort.Search(len(x.keys), func(i int) bool { return !x.keys[i].Less(k) })
		x.keys = slices.Insert(x.keys, i, k)
	}
	i, _ := slices.BinarySearchFunc(row.members, inst.ID, byID)
	row.members = slices.Insert(row.members, i, inst)
	x.below = max(x.below, inst.Pos.Y-ext.YL)
	x.above = max(x.above, ext.YH-inst.Pos.Y)
	return k, true
}

// split partitions a row's current members into clusters exactly as
// d.Clusters() does: the same helper over the members in design order.
func (x *rowIndex) split(row *ecoRow) []db.Cluster {
	return db.AppendRowClusters(nil, slices.Clone(row.members))
}

// known reports whether some cluster before the pending install had exactly
// cl's members in cl's order. Only the cluster that held cl's first member
// can, since an instance is in one cluster at a time.
func (x *rowIndex) known(cl db.Cluster) bool {
	return slices.Equal(x.clusterOf[cl.Insts[0].ID], cl.Insts)
}

// install replaces a row's clusters.
func (x *rowIndex) install(row *ecoRow, cls []db.Cluster, ext []geom.Rect) {
	x.total += len(cls) - len(row.clusters)
	row.clusters = cls
	row.ext = row.ext[:0]
	for _, cl := range cls {
		e := ext[cl.Insts[0].ID]
		for _, m := range cl.Insts {
			e = e.UnionBBox(ext[m.ID])
			x.clusterOf[m.ID] = cl.Insts
		}
		row.ext = append(row.ext, e)
	}
}

// near calls fn for every cluster whose extent touches r: a member extent
// can touch r only then, and only in the rows whose y lies within the
// below/above reach of r.
func (x *rowIndex) near(r geom.Rect, fn func(db.Cluster)) {
	i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i].Y >= r.YL-x.above })
	for ; i < len(x.keys) && x.keys[i].Y <= r.YH+x.below; i++ {
		row := x.rows[x.keys[i]]
		for j, e := range row.ext {
			if e.Touches(r) {
				fn(row.clusters[j])
			}
		}
	}
}

// hashParts is DesignHash's byte stream in its three parts: the head, one line
// per instance in design order (line k is inst[off[k]:off[k+1]]) and the
// tail. Rendered with DesignHash's own line writers, the parts always hash to
// DesignHash(d); a commit that only moves instances re-renders only their
// lines. A nil head means not rendered.
type hashParts struct {
	head, inst, tail []byte
	off              []int
	line             map[int]int // instance ID -> its line index
}

// build renders all three parts from the design.
func (h *hashParts) build(d *db.Design) {
	h.head = h.head[:0]
	b := hashHead(nil, d, func(l []byte) { h.head = append(h.head, l...) })
	h.inst, h.off = h.inst[:0], append(h.off[:0], 0)
	h.line = make(map[int]int, len(d.Instances))
	for k, inst := range d.Instances {
		h.inst = appendInstLine(h.inst, inst)
		h.off = append(h.off, len(h.inst))
		h.line[inst.ID] = k
	}
	h.tail = h.tail[:0]
	hashTail(b, d, func(l []byte) { h.tail = append(h.tail, l...) })
}

// rewrite re-renders the line of an instance that moved.
func (h *hashParts) rewrite(inst *db.Instance) {
	k := h.line[inst.ID]
	var buf [128]byte
	l := appendInstLine(buf[:0], inst)
	lo, hi := h.off[k], h.off[k+1]
	h.inst = slices.Replace(h.inst, lo, hi, l...)
	if delta := len(l) - (hi - lo); delta != 0 {
		for j := k + 1; j < len(h.off); j++ {
			h.off[j] += delta
		}
	}
}
