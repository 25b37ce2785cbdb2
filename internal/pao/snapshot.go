package pao

// Snapshot persistence for Result: a versioned, checksummed container that a
// resident oracle server writes on shutdown (and on a timer) and restores on
// warm restart, so precomputed access analysis survives process death.
//
// Layout of the byte stream:
//
//	8 bytes   magic "PAOSNAP" + format version byte
//	N bytes   payload: gzip(JSON(snapDoc))
//	32 bytes  SHA-256 over magic+version+payload
//
// The payload is fully deterministic (sorted maps, no timestamps), so
// encode -> decode -> re-encode is byte-identical — the golden property the
// warm-restart diff tests pin. Pointers into the design (pins, vias, unique
// instances) are serialized by name/signature and re-resolved against the
// live design on decode; a design-hash and config-fingerprint check rejects
// snapshots taken against different inputs before any rebinding happens.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/db"
	"repro/internal/geom"
)

// Snapshot format identification. Bump snapVersion on any payload change: the
// decoder refuses other versions and the server falls back to a recompute.
const (
	snapMagic   = "PAOSNAP"
	snapVersion = 1
)

// ErrSnapshotCorrupt marks snapshots that fail structural validation: short
// file, bad magic, checksum mismatch, or undecodable payload. Corruption is
// permanent — retrying the read cannot help; recompute instead.
var ErrSnapshotCorrupt = errors.New("pao: snapshot corrupt")

// ErrSnapshotMismatch marks structurally valid snapshots taken against a
// different design or analysis config. Equally permanent.
var ErrSnapshotMismatch = errors.New("pao: snapshot does not match design or config")

// SnapshotPermanent reports whether err can never be fixed by retrying the
// read (corruption or mismatch, as opposed to a transient I/O failure).
func SnapshotPermanent(err error) bool {
	return errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotMismatch)
}

// DesignHash fingerprints everything the analysis result depends on: the
// technology, die, track patterns, instance placements and netlist. Two
// designs with equal hashes yield interchangeable Results (for equal configs).
func DesignHash(d *db.Design) string {
	h := sha256.New()
	// One reused line buffer, written with strconv: the bytes equal what
	// fmt's %s/%d verbs produced, so snapshots on disk keep validating.
	var b []byte
	flush := func() {
		b = append(b, '\n')
		h.Write(b)
		b = b[:0]
	}
	b = append(append(append(b, "design "...), d.Name...), " tech "...)
	b = append(b, d.Tech.Name...)
	b = appendInts(append(b, " node"...), int64(d.Tech.NodeNM))
	b = appendInts(append(b, " sigmax"...), int64(d.SigMaxLayer))
	flush()
	b = appendInts(append(b, "die"...), d.Die.XL, d.Die.YL, d.Die.XH, d.Die.YH)
	flush()
	for _, tp := range d.Tracks {
		b = appendInts(append(b, "track"...), int64(tp.Layer), int64(tp.WireDir), tp.Start, int64(tp.Num), tp.Step)
		flush()
	}
	for _, inst := range d.Instances {
		b = append(append(append(b, "inst "...), inst.Name...), ' ')
		b = append(b, inst.Master.Name...)
		b = appendInts(b, inst.Pos.X, inst.Pos.Y, int64(inst.Orient))
		flush()
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
	return hex.EncodeToString(h.Sum(nil))
}

// appendInts appends " v" for each value, as fmt's " %d" would.
func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	return b
}

// ConfigFingerprint renders the analysis-relevant config fields. Workers and
// FailFast are excluded: results are identical across worker counts, and the
// abort policy never changes what a completed run contains.
func ConfigFingerprint(c Config) string {
	c = c.normalized()
	c.Workers = 0
	c.FailFast = false
	return fmt.Sprintf("%+v", c)
}

// snapDoc is the JSON payload of a snapshot.
type snapDoc struct {
	Version    int         `json:"version"`
	DesignName string      `json:"design_name"`
	DesignHash string      `json:"design_hash"`
	Config     string      `json:"config"`
	Stats      Stats       `json:"stats"`
	Classes    []snapClass `json:"classes"`
	Selected   [][2]int    `json:"selected"` // (instance ID, pattern index), sorted by ID
	Health     snapHealth  `json:"health"`
}

type snapClass struct {
	Signature string        `json:"sig"`
	PivotPos  geom.Point    `json:"pivot"`
	Pins      []snapPin     `json:"pins"`
	Patterns  []snapPattern `json:"patterns,omitempty"`
	Dropped   int           `json:"dropped,omitempty"`
}

type snapPin struct {
	Name    string   `json:"name"`
	SortKey float64  `json:"sort_key"`
	APs     []snapAP `json:"aps,omitempty"`
}

type snapAP struct {
	Pos    geom.Point `json:"pos"`
	Layer  int        `json:"layer"`
	TypeX  CoordType  `json:"tx"`
	TypeY  CoordType  `json:"ty"`
	Dirs   [5]bool    `json:"dirs"`
	Vias   []string   `json:"vias,omitempty"`
	OnPref CoordType  `json:"on_pref"`
}

type snapPattern struct {
	Choice []int `json:"choice"`
	Cost   int   `json:"cost"`
}

type snapHealth struct {
	Classes   []snapClassStatus `json:"classes,omitempty"` // sorted by signature
	Errors    []snapError       `json:"errors,omitempty"`
	Cancelled bool              `json:"cancelled,omitempty"`
	Respawns  int               `json:"respawns,omitempty"`
}

type snapClassStatus struct {
	Signature string      `json:"sig"`
	Status    ClassStatus `json:"status"`
}

type snapError struct {
	Step      Step   `json:"step"`
	Signature string `json:"sig,omitempty"`
	Pin       string `json:"pin,omitempty"`
	Recovered string `json:"recovered"`
	Stack     string `json:"stack,omitempty"`
}

// EncodeSnapshot writes a snapshot of res (analyzed from d under cfg) to w.
func EncodeSnapshot(w io.Writer, d *db.Design, cfg Config, res *Result) error {
	doc := snapDoc{
		Version:    snapVersion,
		DesignName: d.Name,
		DesignHash: DesignHash(d),
		Config:     ConfigFingerprint(cfg),
		Stats:      res.Stats,
	}
	for _, ua := range res.Unique {
		sc := snapClass{
			Signature: ua.UI.Signature(),
			PivotPos:  ua.PivotPos,
			Dropped:   ua.DroppedPatterns,
		}
		for _, pa := range ua.Pins {
			sp := snapPin{Name: pa.Pin.Name, SortKey: pa.SortKey}
			for _, ap := range pa.APs {
				sa := snapAP{
					Pos: ap.Pos, Layer: ap.Layer,
					TypeX: ap.TypeX, TypeY: ap.TypeY,
					Dirs: ap.Dirs, OnPref: ap.OnPref,
				}
				for _, v := range ap.Vias {
					sa.Vias = append(sa.Vias, v.Name)
				}
				sp.APs = append(sp.APs, sa)
			}
			sc.Pins = append(sc.Pins, sp)
		}
		for _, p := range ua.Patterns {
			sc.Patterns = append(sc.Patterns, snapPattern{
				Choice: append([]int(nil), p.Choice...), Cost: p.Cost,
			})
		}
		doc.Classes = append(doc.Classes, sc)
	}
	for id, idx := range res.Selected {
		doc.Selected = append(doc.Selected, [2]int{id, idx})
	}
	sort.Slice(doc.Selected, func(a, b int) bool { return doc.Selected[a][0] < doc.Selected[b][0] })
	doc.Health = encodeHealth(res.Health)

	payload, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	buf.WriteByte(snapVersion)
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(payload); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	_, err = w.Write(buf.Bytes())
	return err
}

func encodeHealth(h *Health) snapHealth {
	var out snapHealth
	if h == nil {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for sig, st := range h.classes {
		out.Classes = append(out.Classes, snapClassStatus{Signature: sig, Status: st})
	}
	sort.Slice(out.Classes, func(a, b int) bool {
		return out.Classes[a].Signature < out.Classes[b].Signature
	})
	for _, e := range h.errors {
		out.Errors = append(out.Errors, snapError{
			Step: e.Step, Signature: e.Signature, Pin: e.Pin,
			Recovered: fmt.Sprint(e.Recovered), Stack: e.Stack,
		})
	}
	out.Cancelled = h.cancelled
	out.Respawns = h.respawns
	return out
}

// DecodeSnapshot reads a snapshot from r and rebinds it onto the live design:
// classes rejoin by unique-instance signature, pins by name, vias by name.
// The checksum is validated first (ErrSnapshotCorrupt), then the design hash
// and config fingerprint (ErrSnapshotMismatch); both are permanent failures
// that callers answer with a full recompute.
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
	gz, err := gzip.NewReader(bytes.NewReader(body[headerLen:]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	var doc snapDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if hash := DesignHash(d); doc.DesignHash != hash {
		return nil, fmt.Errorf("%w: design hash %.12s, snapshot has %.12s",
			ErrSnapshotMismatch, hash, doc.DesignHash)
	}
	if fp := ConfigFingerprint(cfg); doc.Config != fp {
		return nil, fmt.Errorf("%w: config fingerprint differs", ErrSnapshotMismatch)
	}

	uiBySig := make(map[string]*db.UniqueInstance)
	for _, ui := range d.UniqueInstances() {
		uiBySig[ui.Signature()] = ui
	}
	res := &Result{
		ByInstance: make(map[int]*UniqueAccess),
		Selected:   make(map[int]int),
		Stats:      doc.Stats,
		Health:     decodeHealth(doc.Health),
	}
	for _, sc := range doc.Classes {
		ui := uiBySig[sc.Signature]
		if ui == nil {
			// The design hash matched, so an unknown signature means the
			// snapshot lies about its own provenance.
			return nil, fmt.Errorf("%w: class %s not in design", ErrSnapshotMismatch, sc.Signature)
		}
		ua := &UniqueAccess{UI: ui, PivotPos: sc.PivotPos, DroppedPatterns: sc.Dropped}
		for _, sp := range sc.Pins {
			pin := ui.Master.PinByName(sp.Name)
			if pin == nil {
				return nil, fmt.Errorf("%w: pin %s/%s not in design", ErrSnapshotMismatch, sc.Signature, sp.Name)
			}
			pa := &PinAccess{Pin: pin, SortKey: sp.SortKey}
			for _, sa := range sp.APs {
				ap := &AccessPoint{
					Pos: sa.Pos, Layer: sa.Layer,
					TypeX: sa.TypeX, TypeY: sa.TypeY,
					Dirs: sa.Dirs, OnPref: sa.OnPref,
				}
				for _, name := range sa.Vias {
					v := d.Tech.ViaByName(name)
					if v == nil {
						return nil, fmt.Errorf("%w: via %s not in technology", ErrSnapshotMismatch, name)
					}
					ap.Vias = append(ap.Vias, v)
				}
				pa.APs = append(pa.APs, ap)
			}
			ua.Pins = append(ua.Pins, pa)
		}
		for _, p := range sc.Patterns {
			ua.Patterns = append(ua.Patterns, &AccessPattern{Choice: p.Choice, Cost: p.Cost})
		}
		res.Unique = append(res.Unique, ua)
		for _, inst := range ui.Insts {
			res.ByInstance[inst.ID] = ua
		}
	}
	for _, sel := range doc.Selected {
		res.Selected[sel[0]] = sel[1]
	}
	return res, nil
}

func decodeHealth(sh snapHealth) *Health {
	h := newHealth()
	for _, c := range sh.Classes {
		h.classes[c.Signature] = c.Status
	}
	for _, e := range sh.Errors {
		h.errors = append(h.errors, &PipelineError{
			Step: e.Step, Signature: e.Signature, Pin: e.Pin,
			Recovered: e.Recovered, Stack: e.Stack,
		})
	}
	h.cancelled = sh.Cancelled
	h.respawns = sh.Respawns
	return h
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
