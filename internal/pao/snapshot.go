package pao

// Snapshot persistence for Result: a versioned, checksummed container that a
// resident oracle server writes on shutdown (and on a timer) and restores on
// warm restart, so precomputed access analysis survives process death. The
// distributed flow ships partial results (SliceResult) in the same format.
//
// Layout of the byte stream (version 2):
//
//	8 bytes   magic "PAOSNAP" + format version byte
//	header    uvarint payload length | design hash | config fingerprint
//	N bytes   payload: raw DEFLATE (BestSpeed) of the binary encoding below
//	32 bytes  SHA-256 over everything before it
//
// Strings are a uvarint length and the bytes; integers are uvarints, or
// zigzag varints where they can be negative. The payload holds, in order:
// the Stats fields; a via name table in first-use order; the classes, each a
// signature, pivot position, dropped-pattern count, pins (name, SortKey as
// float64 bits, access points relative to the pivot, each with one packed
// TypeX/TypeY/OnPref/Dirs varint and indexes into the via table) and
// patterns (cost, one choice+1 per pin); Selected as ascending,
// delta-coded instance IDs with their pattern indexes; and Health.
//
// The encoding is deterministic (sorted maps, no timestamps) and the
// decoder accepts only the bytes the encoder writes, so encode -> decode ->
// re-encode is byte-identical — the golden property the warm-restart diff
// tests pin. Pointers into the design (pins, vias, unique instances) are
// written by name or signature and resolved against the live design on
// decode, once each, and classes must come in partition order; the design
// hash and config fingerprint are checked before the payload is inflated.
// Decoding is bounded: the declared payload length is capped and must match
// the inflated length exactly, and every count is checked against the bytes
// left, or a bound from the live design, before anything is allocated. Every
// index is checked too (via, pin, access point choice, Selected instance and
// pattern), so an accepted snapshot cannot make a query index out of range.
// Other versions, including v1 (gzip'd JSON), are ErrSnapshotMismatch: the
// caller recomputes.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Snapshot format identification. Bump snapVersion on any payload change: the
// decoder refuses other versions and the server falls back to a recompute.
const (
	snapMagic   = "PAOSNAP"
	snapVersion = 2
	// maxSnapPayload caps the declared inflated payload length, so a small
	// upload cannot inflate into an unbounded allocation.
	maxSnapPayload = 64 << 20
)

// ErrSnapshotCorrupt marks snapshots that fail structural validation: short
// file, bad magic, checksum mismatch, or undecodable payload. Corruption is
// permanent — retrying the read cannot help; recompute instead.
var ErrSnapshotCorrupt = errors.New("pao: snapshot corrupt")

// ErrSnapshotMismatch marks structurally valid snapshots taken against a
// different design or analysis config, or written in another format
// version. Equally permanent.
var ErrSnapshotMismatch = errors.New("pao: snapshot does not match design or config")

// SnapshotPermanent reports whether err can never be fixed by retrying the
// read (corruption or mismatch, as opposed to a transient I/O failure).
func SnapshotPermanent(err error) bool {
	return errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotMismatch)
}

// DesignHash fingerprints everything the analysis result depends on: the
// technology (by name and node), the unique-instance signature rule, the die,
// track patterns, cell masters (class, size, pin names, uses and shapes, and
// obstructions), instance placements and netlist. Two designs with equal
// hashes yield interchangeable Results (for equal configs).
//
// The hashed byte stream has three parts: the head (hashHead), one line per
// instance (appendInstLine) and the tail (hashTail). DesignHash streams the
// lines through one reused line buffer, so a call allocates no copy of the
// stream; an ECOSession keeps the parts and re-renders only the lines an edit
// changes (ECOSession.DesignHash).
func DesignHash(d *db.Design) string {
	h := sha256.New()
	emit := func(line []byte) { h.Write(line) }
	b := hashHead(nil, d, emit)
	for _, inst := range d.Instances {
		b = appendInstLine(b[:0], inst)
		h.Write(b)
	}
	hashTail(b[:0], d, emit)
	return hex.EncodeToString(h.Sum(nil))
}

// hashHead renders the head of the design-hash stream, everything before the
// instances, in the empty line buffer b and hands each line (newline
// included) to emit, which must not retain it. It returns the buffer, empty,
// for reuse.
func hashHead(b []byte, d *db.Design, emit func(line []byte)) []byte {
	flush := func() {
		b = append(b, '\n')
		emit(b)
		b = b[:0]
	}
	b = append(append(append(b, "design "...), d.Name...), " tech "...)
	b = append(b, d.Tech.Name...)
	b = appendInts(append(b, " node"...), int64(d.Tech.NodeNM))
	// Names the signature rule (db.signatureTracks): a snapshot written
	// under another partition fails the header check and recomputes.
	b = append(b, " sig access-tracks"...)
	flush()
	b = appendInts(append(b, "die"...), d.Die.XL, d.Die.YL, d.Die.XH, d.Die.YH)
	flush()
	for _, tp := range d.Tracks {
		b = appendInts(append(b, "track"...), int64(tp.Layer), int64(tp.WireDir), tp.Start, int64(tp.Num), tp.Step)
		flush()
	}
	appendShape := func(b []byte, s db.Shape) []byte {
		return appendInts(b, int64(s.Layer), s.Rect.XL, s.Rect.YL, s.Rect.XH, s.Rect.YH)
	}
	for _, m := range d.Masters {
		b = append(append(b, "master "...), m.Name...)
		b = appendInts(b, int64(m.Class), m.Size.X, m.Size.Y)
		flush()
		for _, p := range m.Pins {
			b = append(append(b, "pin "...), p.Name...)
			b = appendInts(b, int64(p.Use))
			for _, s := range p.Shapes {
				b = appendShape(b, s)
			}
			flush()
		}
		b = append(b, "obs"...)
		for _, s := range m.Obs {
			b = appendShape(b, s)
		}
		flush()
	}
	return b
}

// appendInstLine appends one instance's line of the design-hash stream,
// newline included.
func appendInstLine(b []byte, inst *db.Instance) []byte {
	b = append(append(append(b, "inst "...), inst.Name...), ' ')
	b = append(b, inst.Master.Name...)
	b = appendInts(b, inst.Pos.X, inst.Pos.Y, int64(inst.Orient))
	return append(b, '\n')
}

// hashTail renders the tail of the design-hash stream, the nets and then the
// IO pins, as hashHead does the head.
func hashTail(b []byte, d *db.Design, emit func(line []byte)) []byte {
	flush := func() {
		b = append(b, '\n')
		emit(b)
		b = b[:0]
	}
	for _, net := range d.Nets {
		b = append(append(b, "net "...), net.Name...)
		for _, t := range net.Terms {
			b = append(append(appendInts(b, int64(t.Inst.ID)), '/'), t.Pin.Name...)
		}
		for _, io := range net.IOPins {
			b = append(append(b, " io/"...), io.Name...)
		}
		flush()
	}
	for _, io := range d.IOPins {
		r := io.Shape.Rect
		b = append(append(b, "iopin "...), io.Name...)
		b = appendInts(b, int64(io.Dir), int64(io.Shape.Layer), r.XL, r.YL, r.XH, r.YH)
		flush()
	}
	return b
}

// appendInts appends " v" for each value, as fmt's " %d" would.
func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	return b
}

// ConfigFingerprint renders the analysis-relevant config fields. Workers,
// FailFast and NoCache are excluded: results are identical across worker
// counts and with the via cache on or off, and the abort policy never changes
// what a completed run contains.
func ConfigFingerprint(c Config) string {
	c = c.normalized()
	c.Workers = 0
	c.FailFast = false
	c.NoCache = false
	return fmt.Sprintf("%+v", c)
}

// EncodeSnapshot writes a snapshot of res (analyzed from d under cfg) to w.
func EncodeSnapshot(w io.Writer, d *db.Design, cfg Config, res *Result) error {
	snap, err := sealSnapshot(DesignHash(d), ConfigFingerprint(cfg), appendPayload(nil, res))
	if err != nil {
		return err
	}
	_, err = w.Write(snap)
	return err
}

// sealSnapshot frames a payload: magic, version, header, the compressed
// payload and the checksum.
func sealSnapshot(hash, config string, payload []byte) ([]byte, error) {
	buf := bytes.NewBuffer(snapHeader(hash, config, uint64(len(payload))))
	zw, err := flate.NewWriter(buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(payload); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return append(buf.Bytes(), sum[:]...), nil
}

// snapHeader returns the framing that precedes the compressed payload.
func snapHeader(hash, config string, payloadLen uint64) []byte {
	w := snapWriter(append([]byte(snapMagic), snapVersion))
	w.uvarint(payloadLen)
	w.str(hash)
	w.str(config)
	return w
}

// snapWriter appends the payload's primitive encodings.
type snapWriter []byte

func (w *snapWriter) uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }
func (w *snapWriter) varint(v int64)   { *w = binary.AppendVarint(*w, v) }
func (w *snapWriter) count(n int)      { w.uvarint(uint64(n)) }
func (w *snapWriter) str(s string)     { w.count(len(s)); *w = append(*w, s...) }
func (w *snapWriter) f64(v float64) {
	*w = binary.LittleEndian.AppendUint64(*w, math.Float64bits(v))
}

// statsFields lists the Stats fields in payload order, for both directions.
func statsFields(s *Stats) ([]*int, []*time.Duration) {
	return []*int{&s.NumUnique, &s.TotalAPs, &s.DirtyAPs, &s.TotalPins,
			&s.FailedPins, &s.PatternsBuilt, &s.PatternsDropped, &s.OffTrackAPs},
		[]*time.Duration{&s.Steps.Step1, &s.Steps.Step2, &s.Steps.Step12Wall,
			&s.Steps.Step3, &s.Steps.FailedPins, &s.Steps.Total}
}

// apFlags packs an access point's coordinate types and directions:
// bits 0-1 TypeX, 2-3 TypeY, 4-5 OnPref, 6-10 Dirs.
func apFlags(ap *AccessPoint) uint64 {
	f := uint64(ap.TypeX&3) | uint64(ap.TypeY&3)<<2 | uint64(ap.OnPref&3)<<4
	for i, on := range ap.Dirs {
		if on {
			f |= 1 << (6 + i)
		}
	}
	return f
}

const apFlagsMax = 1<<11 - 1

// appendPayload appends res's binary encoding.
func appendPayload(b []byte, res *Result) []byte {
	w := snapWriter(b)
	ints, durs := statsFields(&res.Stats)
	for _, v := range ints {
		w.varint(int64(*v))
	}
	for _, v := range durs {
		w.varint(int64(*v))
	}

	viaIdx := make(map[*tech.ViaDef]int)
	var vias []string
	for _, ua := range res.Unique {
		for _, pa := range ua.Pins {
			for _, ap := range pa.APs {
				for _, v := range ap.Vias {
					if _, ok := viaIdx[v]; !ok {
						viaIdx[v] = len(vias)
						vias = append(vias, v.Name)
					}
				}
			}
		}
	}
	w.count(len(vias))
	for _, name := range vias {
		w.str(name)
	}

	w.count(len(res.Unique))
	for _, ua := range res.Unique {
		w.str(ua.UI.Signature())
		w.varint(ua.PivotPos.X)
		w.varint(ua.PivotPos.Y)
		w.count(ua.DroppedPatterns)
		w.count(len(ua.Pins))
		for _, pa := range ua.Pins {
			w.str(pa.Pin.Name)
			w.f64(pa.SortKey)
			w.count(len(pa.APs))
			for _, ap := range pa.APs {
				w.varint(ap.Pos.X - ua.PivotPos.X)
				w.varint(ap.Pos.Y - ua.PivotPos.Y)
				w.count(ap.Layer)
				w.uvarint(apFlags(ap))
				w.count(len(ap.Vias))
				for _, v := range ap.Vias {
					w.count(viaIdx[v])
				}
			}
		}
		w.count(len(ua.Patterns))
		for _, p := range ua.Patterns {
			w.varint(int64(p.Cost))
			w.count(len(p.Choice))
			for _, c := range p.Choice {
				w.count(c + 1)
			}
		}
	}

	ids := make([]int, 0, len(res.Selected))
	for id := range res.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.count(len(ids))
	prev := -1
	for _, id := range ids {
		w.count(id - prev - 1)
		w.count(res.Selected[id])
		prev = id
	}

	h := res.Health
	if h == nil {
		h = newHealth()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sigs := make([]string, 0, len(h.classes))
	for sig := range h.classes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	w.count(len(sigs))
	for _, sig := range sigs {
		w.str(sig)
		w.count(int(h.classes[sig]))
	}
	w.count(len(h.errors))
	for _, e := range h.errors {
		w.str(string(e.Step))
		w.str(e.Signature)
		w.str(e.Pin)
		w.str(fmt.Sprint(e.Recovered))
		w.str(e.Stack)
	}
	cancelled := 0
	if h.cancelled {
		cancelled = 1
	}
	w.count(cancelled)
	w.count(h.respawns)
	return w
}

// DecodeSnapshot reads a snapshot from r and rebinds it onto the live design:
// classes rejoin by unique-instance signature, pins by name, vias by name.
// The checksum is validated first (ErrSnapshotCorrupt), then the format
// version, design hash and config fingerprint (ErrSnapshotMismatch), then
// the payload (ErrSnapshotCorrupt, or ErrSnapshotMismatch for a class, pin
// or via the design lacks). All are permanent failures that callers answer
// with a full recompute.
func DecodeSnapshot(r io.Reader, d *db.Design, cfg Config) (*Result, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	const headerLen = len(snapMagic) + 1
	if len(raw) < headerLen+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrSnapshotCorrupt, len(raw))
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if string(body[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if v := body[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrSnapshotMismatch, v, snapVersion)
	}
	h := &snapReader{b: body[headerLen:]}
	n := h.uvarint()
	hash, config := h.bytes(), h.bytes()
	if h.err != nil {
		return nil, h.err
	}
	if n > maxSnapPayload {
		return nil, fmt.Errorf("%w: payload of %d bytes exceeds the %d-byte limit", ErrSnapshotCorrupt, n, maxSnapPayload)
	}
	if want := DesignHash(d); string(hash) != want {
		return nil, fmt.Errorf("%w: design hash %.12s, snapshot has %.12s", ErrSnapshotMismatch, want, hash)
	}
	if string(config) != ConfigFingerprint(cfg) {
		return nil, fmt.Errorf("%w: config fingerprint differs", ErrSnapshotMismatch)
	}
	payload, err := inflate(h.b, int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return decodePayload(payload, d)
}

// Minimum encoded sizes, which bound every count by the bytes left.
const (
	minClassSize = 6  // signature, pivot x/y, dropped, pin and pattern counts
	minPinSize   = 10 // name, SortKey, access point count
	minAPSize    = 5  // x, y, layer, flags, via count
	minErrorSize = 5  // five strings
)

// snapDecoder reads one payload against the live design.
type snapDecoder struct {
	snapReader
	d       *db.Design
	vias    []*tech.ViaDef // the payload's via table, resolved
	nextVia int            // table entries are numbered in order of first use
}

// decodePayload rebuilds a Result from a payload. Nothing in the Result
// aliases the payload.
func decodePayload(payload []byte, d *db.Design) (*Result, error) {
	r := &snapDecoder{snapReader: snapReader{b: payload}, d: d}
	res := &Result{}
	ints, durs := statsFields(&res.Stats)
	for _, v := range ints {
		*v = int(r.varint())
	}
	for _, v := range durs {
		*v = time.Duration(r.varint())
	}
	r.viaTable()

	// Classes rejoin the design partition, computed once, by signature.
	uis := d.UniqueInstances()
	classOf := make(map[string]int, len(uis))
	for i, ui := range uis {
		classOf[ui.Signature()] = i
	}
	prev := -1 // partition index of the class before
	uas := make([]UniqueAccess, r.count(len(uis), minClassSize, "class"))
	res.Unique = make([]*UniqueAccess, len(uas))
	members := 0
	for i := range uas {
		sig := r.bytes()
		k, ok := classOf[string(sig)]
		if r.err != nil {
			break
		}
		if !ok {
			// The design hash matched, so an unknown signature means the
			// snapshot lies about its own provenance.
			r.fail(ErrSnapshotMismatch, "class %s not in design", sig)
			break
		}
		if k <= prev {
			// The encoder writes classes in partition order, which an ECO
			// session's splice of the class list relies on.
			r.fail(ErrSnapshotCorrupt, "class %s out of partition order", sig)
			break
		}
		prev = k
		members += len(uis[k].Insts)
		res.Unique[i] = &uas[i]
		r.class(&uas[i], uis[k])
	}
	if r.nextVia != len(r.vias) && r.err == nil {
		r.fail(ErrSnapshotCorrupt, "%d of %d vias unused", len(r.vias)-r.nextVia, len(r.vias))
	}
	if r.err != nil {
		return nil, r.err
	}
	res.ByInstance = make(map[int]*UniqueAccess, members)
	for _, ua := range res.Unique {
		for _, inst := range ua.UI.Insts {
			res.ByInstance[inst.ID] = ua
		}
	}
	r.selected(res, members)
	res.Health = r.health()
	if len(r.b) != 0 && r.err == nil {
		r.fail(ErrSnapshotCorrupt, "%d bytes after the payload", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// viaTable reads the via names, resolving each once; each must be a
// distinct technology via.
func (r *snapDecoder) viaTable() {
	r.vias = make([]*tech.ViaDef, r.count(len(r.d.Tech.Vias), 1, "via"))
	for i := range r.vias {
		name := r.bytes()
		v := r.d.Tech.ViaByName(string(name))
		if v == nil && r.err == nil {
			r.fail(ErrSnapshotMismatch, "via %s not in technology", name)
		}
		for _, u := range r.vias[:i] {
			if u == v && r.err == nil {
				r.fail(ErrSnapshotCorrupt, "via %s listed twice", name)
			}
		}
		r.vias[i] = v
	}
}

// class reads one class's analysis for ui. Each slice is allocated once, at
// its validated count.
func (r *snapDecoder) class(ua *UniqueAccess, ui *db.UniqueInstance) {
	ua.UI = ui
	ua.PivotPos.X = r.varint()
	ua.PivotPos.Y = r.varint()
	ua.DroppedPatterns = r.uint(math.MaxInt32, "dropped pattern count")
	pas := make([]PinAccess, r.count(len(ui.Master.Pins), minPinSize, "pin"))
	ua.Pins = make([]*PinAccess, len(pas))
	for i := range pas {
		pa := &pas[i]
		ua.Pins[i] = pa
		name := r.str()
		if pa.Pin = ui.Master.PinByName(name); pa.Pin == nil && r.err == nil {
			r.fail(ErrSnapshotMismatch, "pin %s/%s not in design", ui.Signature(), name)
		}
		for _, prev := range pas[:i] {
			if prev.Pin == pa.Pin && r.err == nil {
				r.fail(ErrSnapshotCorrupt, "pin %s of class %s listed twice", pa.Pin.Name, ui.Signature())
			}
		}
		pa.SortKey = r.f64()
		aps := make([]AccessPoint, r.count(math.MaxInt, minAPSize, "access point"))
		pa.APs = make([]*AccessPoint, len(aps))
		for j := range aps {
			pa.APs[j] = &aps[j]
			r.accessPoint(&aps[j], ua.PivotPos)
		}
	}

	// Each pattern chooses one access point, or -1, per pin.
	nPins := len(pas)
	pats := make([]AccessPattern, r.count(math.MaxInt, 2+nPins, "pattern"))
	choices := make([]int, len(pats)*nPins)
	ua.Patterns = make([]*AccessPattern, len(pats))
	for i := range pats {
		p := &pats[i]
		ua.Patterns[i] = p
		p.Cost = int(r.varint())
		if n := r.uvarint(); n != uint64(nPins) && r.err == nil {
			r.fail(ErrSnapshotCorrupt, "pattern of class %s has %d choices for %d pins", ui.Signature(), n, nPins)
		}
		p.Choice = choices[i*nPins : (i+1)*nPins : (i+1)*nPins]
		for j := range p.Choice {
			c := r.uvarint()
			if c > uint64(len(pas[j].APs)) && r.err == nil {
				r.fail(ErrSnapshotCorrupt, "pattern of class %s chooses access point %d of pin %s, which has %d",
					ui.Signature(), c-1, pas[j].Pin.Name, len(pas[j].APs))
			}
			p.Choice[j] = int(c) - 1
		}
	}
}

// accessPoint reads one access point, stored relative to the class pivot.
func (r *snapDecoder) accessPoint(ap *AccessPoint, pivot geom.Point) {
	ap.Pos.X = pivot.X + r.varint()
	ap.Pos.Y = pivot.Y + r.varint()
	if ap.Layer = r.uint(len(r.d.Tech.Metals), "layer"); ap.Layer == 0 && r.err == nil {
		r.fail(ErrSnapshotCorrupt, "access point on layer 0")
	}
	f := r.uint(apFlagsMax, "access point flags")
	ap.TypeX, ap.TypeY, ap.OnPref = CoordType(f&3), CoordType(f>>2&3), CoordType(f>>4&3)
	for i := range ap.Dirs {
		ap.Dirs[i] = f>>(6+i)&1 == 1
	}
	nv := r.count(len(r.vias), 1, "via")
	if nv == 0 {
		return
	}
	ap.Vias = make([]*tech.ViaDef, nv)
	for i := range ap.Vias {
		idx := r.uint(min(r.nextVia, len(r.vias)-1), "via index")
		if idx == r.nextVia {
			r.nextVia++
		}
		ap.Vias[i] = r.vias[idx]
	}
}

// selected reads Selected: ascending instance IDs, each a member of a
// snapshot class, with an in-range pattern index.
func (r *snapDecoder) selected(res *Result, members int) {
	n := r.count(members, 2, "selection")
	res.Selected = make(map[int]int, n)
	id := -1
	for i := 0; i < n && r.err == nil; i++ {
		id += 1 + r.uint(math.MaxInt32, "instance ID step")
		ua := res.ByInstance[id]
		if ua == nil {
			r.fail(ErrSnapshotCorrupt, "selection for instance %d, which no snapshot class holds", id)
			return
		}
		res.Selected[id] = r.uint(len(ua.Patterns)-1, "selected pattern")
	}
}

// health reads the class statuses, strictly ordered by signature, and the
// recovered errors.
func (r *snapDecoder) health() *Health {
	h := newHealth()
	prev := ""
	for i, n := 0, r.count(math.MaxInt, 2, "class status"); i < n; i++ {
		sig := r.str()
		if i > 0 && sig <= prev && r.err == nil {
			r.fail(ErrSnapshotCorrupt, "class statuses out of order at %s", sig)
		}
		h.classes[sig] = ClassStatus(r.uint(int(StatusFailed), "class status"))
		prev = sig
	}
	errs := make([]PipelineError, r.count(math.MaxInt, minErrorSize, "error"))
	h.errors = make([]*PipelineError, len(errs))
	for i := range errs {
		e := &errs[i]
		e.Step, e.Signature, e.Pin = Step(r.str()), r.str(), r.str()
		e.Recovered, e.Stack = r.str(), r.str()
		h.errors[i] = e
	}
	h.cancelled = r.uint(1, "cancelled flag") == 1
	h.respawns = r.uint(math.MaxInt32, "respawn count")
	return h
}

// inflate decompresses src, which must be exactly one DEFLATE stream of
// exactly n bytes.
func inflate(src []byte, n int) ([]byte, error) {
	in := bytes.NewReader(src)
	zr := flate.NewReader(in)
	out := make([]byte, n)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("payload shorter than its declared %d bytes: %v", n, err)
	}
	if k, err := zr.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		return nil, fmt.Errorf("payload longer than its declared %d bytes", n)
	}
	if in.Len() != 0 {
		return nil, fmt.Errorf("%d bytes after the compressed payload", in.Len())
	}
	return out, nil
}

// snapReader walks an encoded payload. Errors are sticky: after the first,
// every read returns zero values and err says what was wrong.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(kind error, format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", kind, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// uvarint reads a uvarint in its shortest encoding: a longer one would not
// re-encode to the same bytes.
func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail(ErrSnapshotCorrupt, "bad varint at %d bytes from the end", len(r.b))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// uint reads a uvarint that must lie in [0, limit].
func (r *snapReader) uint(limit int, what string) int {
	v := r.uvarint()
	if limit < 0 || v > uint64(limit) {
		r.fail(ErrSnapshotCorrupt, "%s %d out of range [0, %d]", what, v, limit)
		return 0
	}
	return int(v)
}

// count reads an element count that must not exceed limit, nor the number
// of elements of at least minSize bytes the rest of the payload can hold.
func (r *snapReader) count(limit, minSize int, what string) int {
	v := r.uvarint()
	if v > uint64(limit) || v > uint64(len(r.b)/minSize) {
		r.fail(ErrSnapshotCorrupt, "%s count %d exceeds the %d bytes left or the limit %d", what, v, len(r.b), limit)
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed string. The result aliases the payload.
func (r *snapReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(ErrSnapshotCorrupt, "string of %d bytes runs past the end", n)
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *snapReader) str() string { return string(r.bytes()) }

func (r *snapReader) f64() float64 {
	if len(r.b) < 8 {
		r.fail(ErrSnapshotCorrupt, "truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// WriteSnapshotFile atomically persists a snapshot: the bytes land in a temp
// file in the destination directory, are synced, and replace path with a
// rename — a crash mid-write leaves the previous snapshot intact.
func WriteSnapshotFile(path string, d *db.Design, cfg Config, res *Result) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeSnapshot(tmp, d, cfg, res); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSnapshotFile restores a Result from path against the live design.
func ReadSnapshotFile(path string, d *db.Design, cfg Config) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f, d, cfg)
}
