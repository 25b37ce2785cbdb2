package serve

// POST /v1/designs: register a design into a running manager from a generated
// suite case, inline LEF/DEF text, or an uploaded PR-4 snapshot. This is an
// abuse-facing surface — multi-tenant registration accepts bytes from other
// teams' tooling — so parsing is hardened: the body is size-capped before it
// is read (413), design IDs pass a strict charset/length gate before they can
// become file names or metric labels (400), duplicates conflict (409), and a
// design that validates but fails to build is 422, never a crash. The pure
// ParseRegisterRequest is the fuzz target (FuzzRegisterRequest).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/pao"
	"repro/internal/suite"
)

// Size caps for inline registration payloads. These bound what one
// registration can make the manager hold in flight, independent of the
// whole-body MaxUploadBytes cap.
const (
	maxIDLen        = 64
	maxInlineSource = 8 << 20  // LEF or DEF text
	maxInlineSnap   = 24 << 20 // uploaded snapshot stream
)

// idRe is the design/tenant ID gate: IDs become snapshot file names, metric
// label values and map keys, so no separators, no dots-only names, no
// control characters — one alphanumeric head, then up to 63 of [A-Za-z0-9._-].
var idRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidateID vets a design or tenant identifier.
func ValidateID(id string) error {
	if id == "" {
		return errors.New("empty ID")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("ID longer than %d bytes", maxIDLen)
	}
	if !idRe.MatchString(id) {
		return fmt.Errorf("ID %q: must start alphanumeric and contain only [A-Za-z0-9._-]", id)
	}
	return nil
}

// RegisterRequest is the POST /v1/designs body. Exactly one design source is
// required: a generated suite case, or inline LEF+DEF text. An optional
// snapshot (PR-4 stream, base64 in JSON) warm-starts the design without
// analysis; a corrupt one falls back to compute.
type RegisterRequest struct {
	ID string `json:"id"`

	// Source 1: generated suite case.
	Case  string  `json:"case,omitempty"`
	Scale float64 `json:"scale,omitempty"` // 0 means full size; else (0,1]
	Seed  int64   `json:"seed,omitempty"`  // 0 keeps the spec's seed

	// Source 2: inline LEF/DEF text.
	LEF string `json:"lef,omitempty"`
	DEF string `json:"def,omitempty"`

	// Snapshot optionally warm-starts from a PR-4 snapshot stream.
	Snapshot []byte `json:"snapshot,omitempty"`

	// Analysis overrides (0 keeps the manager's defaults).
	K       int `json:"k,omitempty"`
	Workers int `json:"workers,omitempty"`

	// Bulkhead overrides (zero values keep the manager's Design template).
	MaxInFlight int     `json:"max_inflight,omitempty"`
	Queue       *int    `json:"queue,omitempty"` // nil keeps template; 0 sheds when busy
	Rate        float64 `json:"rate,omitempty"`
	Burst       int     `json:"burst,omitempty"`
}

// ParseRegisterRequest decodes and validates a registration body without
// touching any server state — the fuzzable core of POST /v1/designs. It never
// panics on hostile input; every rejection is a descriptive error.
func ParseRegisterRequest(data []byte) (*RegisterRequest, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var req RegisterRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad registration JSON: %v", err)
	}
	// Trailing garbage after the JSON object is a malformed request, not an
	// ignorable suffix.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("trailing data after registration JSON")
	}
	if err := ValidateID(req.ID); err != nil {
		return nil, fmt.Errorf("bad design ID: %w", err)
	}
	haveCase := req.Case != ""
	haveFiles := req.LEF != "" || req.DEF != ""
	switch {
	case haveCase && haveFiles:
		return nil, errors.New(`"case" and "lef"/"def" are mutually exclusive`)
	case !haveCase && !haveFiles:
		return nil, errors.New(`exactly one design source required: "case" or "lef"+"def"`)
	case haveFiles && (req.LEF == "" || req.DEF == ""):
		return nil, errors.New(`"lef" and "def" must both be provided`)
	}
	if haveCase {
		if err := ValidateID(req.Case); err != nil {
			return nil, fmt.Errorf("bad case name: %w", err)
		}
		if req.Scale < 0 || req.Scale > 1 {
			return nil, fmt.Errorf(`"scale" %v out of range (0,1]`, req.Scale)
		}
	}
	if len(req.LEF) > maxInlineSource || len(req.DEF) > maxInlineSource {
		return nil, fmt.Errorf("inline LEF/DEF exceeds %d bytes", maxInlineSource)
	}
	if len(req.Snapshot) > maxInlineSnap {
		return nil, fmt.Errorf("snapshot exceeds %d bytes", maxInlineSnap)
	}
	if req.K < 0 || req.K > 64 {
		return nil, fmt.Errorf(`"k" %d out of range [0,64]`, req.K)
	}
	if req.Workers < 0 || req.Workers > 1024 {
		return nil, fmt.Errorf(`"workers" %d out of range [0,1024]`, req.Workers)
	}
	if req.MaxInFlight < 0 || req.MaxInFlight > 4096 {
		return nil, fmt.Errorf(`"max_inflight" %d out of range [0,4096]`, req.MaxInFlight)
	}
	if req.Queue != nil && (*req.Queue < -1 || *req.Queue > 1<<20) {
		return nil, fmt.Errorf(`"queue" %d out of range [-1,1048576]`, *req.Queue)
	}
	if req.Rate < 0 || req.Burst < 0 {
		return nil, errors.New(`"rate" and "burst" must be non-negative`)
	}
	return &req, nil
}

// tune applies the request's bulkhead overrides to a design's Config.
func (req *RegisterRequest) tune(c *Config) {
	if req.MaxInFlight > 0 {
		c.MaxInFlight = req.MaxInFlight
	}
	if req.Queue != nil {
		c.QueueDepth = *req.Queue
	}
	if req.Rate > 0 {
		c.RatePerSec = req.Rate
		if req.Burst > 0 {
			c.Burst = req.Burst
		}
	}
}

// buildDesign materializes the request's design source. The design is renamed
// to the registration ID so every per-design metric label, snapshot hash and
// log line keys on the caller-chosen identity — two registrations of the same
// suite case stay distinguishable.
func (m *Manager) buildDesign(req *RegisterRequest) (*db.Design, pao.Config, error) {
	paoCfg := m.paoCfg
	if req.K > 0 {
		paoCfg.K = req.K
	}
	if req.Workers > 0 {
		paoCfg.Workers = req.Workers
	}
	var d *db.Design
	if req.Case != "" {
		spec, err := suite.ByName(req.Case)
		if err != nil {
			return nil, paoCfg, err
		}
		if req.Scale > 0 {
			spec = spec.Scale(req.Scale)
		}
		if req.Seed != 0 {
			spec = spec.WithSeed(req.Seed)
		}
		d, err = suite.Generate(spec)
		if err != nil {
			return nil, paoCfg, err
		}
	} else {
		lib, err := lef.Parse(strings.NewReader(req.LEF))
		if err != nil {
			return nil, paoCfg, fmt.Errorf("LEF: %w", err)
		}
		d, err = def.Parse(strings.NewReader(req.DEF), lib.Tech, lib.Masters)
		if err != nil {
			return nil, paoCfg, fmt.Errorf("DEF: %w", err)
		}
	}
	d.Name = req.ID
	return d, paoCfg, nil
}

// handleRegister is POST /v1/designs.
func (m *Manager) handleRegister(w http.ResponseWriter, r *http.Request) {
	if m.draining.Load() {
		http.Error(w, "manager draining", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, m.cfg.MaxUploadBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("registration body exceeds %d bytes", m.cfg.MaxUploadBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	req, err := ParseRegisterRequest(data)
	if err != nil {
		m.reg().Counter("serve.register.rejected").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Cheap duplicate check before the expensive build; RegisterDesign
	// re-checks atomically under its lock.
	if m.get(req.ID) != nil {
		http.Error(w, "design "+req.ID+" already registered", http.StatusConflict)
		return
	}
	d, paoCfg, err := m.buildDesign(req)
	if err != nil {
		m.reg().Counter("serve.register.rejected").Inc()
		http.Error(w, "building design: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	srv, err := m.RegisterDesign(r.Context(), req.ID, d, paoCfg, &RegisterOptions{
		Snapshot: req.Snapshot,
		Tune:     req.tune,
	})
	switch {
	case errors.Is(err, ErrDesignExists):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		m.Logger.Error("registration failed", "design", req.ID, "err", err)
		http.Error(w, "analysis failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	_ = srv
	e := m.get(req.ID)
	if e == nil { // deleted in the handler's race window; report honestly
		http.Error(w, "design removed during registration", http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusCreated, m.designInfo(e))
}
