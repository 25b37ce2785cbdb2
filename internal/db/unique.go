package db

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/geom"
	"repro/internal/tech"
)

// UniqueInstance is an equivalence class of instances sharing a signature:
// the same cell master, the same orientation and the same offsets to every
// track pattern the master's pin access reads (Section II-A of the paper;
// signatureTracks). All members see identical on-track/off-track conditions,
// so intra-cell pin access analysis runs once per unique instance and its
// result applies to every member.
type UniqueInstance struct {
	Master  *Master
	Orient  geom.Orient
	Offsets []int64     // per design track pattern, phase of the pivot's origin (0 outside the signature)
	Insts   []*Instance // members, in design order
}

// Pivot returns the representative member whose coordinates the analysis uses.
func (u *UniqueInstance) Pivot() *Instance { return u.Insts[0] }

// Signature renders the unique-instance key as a readable string:
// master/orient/offset/offset/...
func (u *UniqueInstance) Signature() string {
	return string(appendSignature(nil, u.Master, u.Orient, u.Offsets))
}

func appendSignature(b []byte, m *Master, o geom.Orient, offs []int64) []byte {
	b = append(append(append(b, m.Name...), '/'), o.String()...)
	for _, off := range offs {
		b = strconv.AppendInt(append(b, '/'), off, 10)
	}
	return b
}

// AppendOffsetsKey appends the offsets in the form UniqueInstances orders
// classes by: each offset in decimal followed by a comma. Classes of one
// master and orientation sort by this key as a string.
func AppendOffsetsKey(b []byte, offs []int64) []byte {
	for _, off := range offs {
		b = append(strconv.AppendInt(b, off, 10), ',')
	}
	return b
}

// signatureTracks reports, per design track pattern, whether its phase joins
// the master's unique-instance signature: exactly the patterns Step 1 reads,
// AccessTracks of every layer a signal pin's shapes occupy (MPin.Layers).
// The phase of any other pattern cannot change an answer. The rule reads the
// master, never the placement, so an ECO insert cannot change the partition;
// it is evaluated afresh on every call, so an edited library cannot leave it
// stale.
func signatureTracks(d *Design, m *Master) []bool {
	var layers []int
	for _, p := range m.SignalPins() {
		for _, l := range p.Layers() {
			if !slices.Contains(layers, l) {
				layers = append(layers, l)
			}
		}
	}
	use := make([]bool, len(d.Tracks))
	for _, l := range layers {
		pref, nonPref := d.AccessTracks(l)
		// AccessTracks returns copies; a pattern equal to a read one has the
		// same phase, so marking it too changes no class.
		for i, tp := range d.Tracks {
			use[i] = use[i] || slices.Contains(pref, tp) || slices.Contains(nonPref, tp)
		}
	}
	return use
}

// instanceOffsets computes the phase of an instance's placement against every
// track pattern: the x phase for vertical-wire patterns (tracks are x
// coordinates) and the y phase for horizontal-wire patterns.
func instanceOffsets(d *Design, inst *Instance) []int64 {
	return appendOffsets(make([]int64, 0, len(d.Tracks)), d, signatureTracks(d, inst.Master), inst)
}

// appendOffsets appends the instance's per-track-pattern phases to out; a
// pattern outside the signature (use[i] false) contributes 0.
func appendOffsets(out []int64, d *Design, use []bool, inst *Instance) []int64 {
	for i, tp := range d.Tracks {
		if !use[i] {
			out = append(out, 0)
			continue
		}
		coord := inst.Pos.Y // horizontal wires: tracks are y coordinates
		if tp.WireDir == tech.Vertical {
			coord = inst.Pos.X
		}
		out = append(out, tp.Offset(coord))
	}
	return out
}

// OffsetsOf returns the per-track-pattern placement phases of an instance —
// the offsets component of its unique-instance signature under its current
// placement. Incremental flows use it to build a class for a placement phase
// the full partition has never seen.
func (d *Design) OffsetsOf(inst *Instance) []int64 { return instanceOffsets(d, inst) }

// UniqueInstances partitions the design's CORE and BLOCK instances into
// unique-instance classes. The result is deterministic: classes are sorted by
// master name, then orientation, then offsets; members keep design order.
func (d *Design) UniqueInstances() []*UniqueInstance {
	type class struct {
		ui   *UniqueInstance
		offs string // AppendOffsetsKey of ui.Offsets
	}
	// The map key is the signature; offsets and key are rendered into reused
	// buffers, so only an instance that opens a new class allocates.
	byKey := make(map[string]int)
	use := make(map[*Master][]bool)
	var order []class
	var offs []int64
	var key []byte
	for _, inst := range d.Instances {
		u, ok := use[inst.Master]
		if !ok {
			u = signatureTracks(d, inst.Master)
			use[inst.Master] = u
		}
		offs = appendOffsets(offs[:0], d, u, inst)
		key = appendSignature(key[:0], inst.Master, inst.Orient, offs)
		i, seen := byKey[string(key)]
		if !seen {
			i = len(order)
			byKey[string(key)] = i
			order = append(order, class{
				ui: &UniqueInstance{Master: inst.Master, Orient: inst.Orient,
					Offsets: append([]int64(nil), offs...)},
				offs: string(AppendOffsetsKey(nil, offs)),
			})
		}
		order[i].ui.Insts = append(order[i].ui.Insts, inst)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if ca.ui.Master.Name != cb.ui.Master.Name {
			return ca.ui.Master.Name < cb.ui.Master.Name
		}
		if ca.ui.Orient != cb.ui.Orient {
			return ca.ui.Orient < cb.ui.Orient
		}
		return ca.offs < cb.offs
	})
	out := make([]*UniqueInstance, len(order))
	for i, c := range order {
		out[i] = c.ui
	}
	return out
}

// InstanceSignature computes the unique-instance signature an instance would
// belong to under its current placement, in the same format as
// UniqueInstance.Signature. Incremental flows use it to rebind a moved
// instance to an existing class without re-partitioning the whole design.
func (d *Design) InstanceSignature(inst *Instance) string {
	return string(appendSignature(nil, inst.Master, inst.Orient, instanceOffsets(d, inst)))
}
