package serve

// Design-scoped HTTP endpoints; the Manager resolves the design and dispatches
// to them. Query handlers degrade, never 500 on bad analysis state:
// an instance whose class is quarantined in Result.Health still answers, with
// best-effort fallback access points and "degraded": true, because a router
// with an approximate answer beats a router with an error page.

import (
	"net/http"

	"repro/internal/db"
	"repro/internal/pao"
	"repro/internal/telemetry"
)

// PinAnswer is one pin's access point in a query response.
type PinAnswer struct {
	Pin   string `json:"pin"`
	X     int64  `json:"x"`
	Y     int64  `json:"y"`
	Layer int    `json:"layer"`
	TypeX string `json:"type_x,omitempty"`
	TypeY string `json:"type_y,omitempty"`
	Via   string `json:"via,omitempty"`
	// Fallback marks a geometric pin-shape-center answer synthesized because
	// the class has no analysis data (quarantined or unanalyzed).
	Fallback bool `json:"fallback,omitempty"`
	// Failed marks a pin with no access point at all (not even a fallback
	// shape). X/Y/Layer are zero.
	Failed bool `json:"failed,omitempty"`
}

// QueryResponse answers /v1/access?inst=NAME.
type QueryResponse struct {
	Inst     string `json:"inst"`
	Class    string `json:"class"`
	Status   string `json:"status"` // ok | degraded | failed
	Degraded bool   `json:"degraded"`
	// EcoPending marks the transient window where an ECO has re-placed this
	// instance but its re-analysis has not merged yet; the pins are degraded
	// fallbacks until the post-ECO result swaps in.
	EcoPending bool        `json:"eco_pending,omitempty"`
	Pattern    int         `json:"pattern"` // selected pattern index, -1 when none
	Source     string      `json:"source"`  // snapshot | recompute | eco
	Pins       []PinAnswer `json:"pins"`
}

// handleSlowlog dumps the bounded slow-query ring, newest first, with trace
// exemplars for sampled queries.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.Snapshot())
}

// ExplainResponse answers /v1/access/explain?inst=NAME&pin=NAME: the decision
// audit from a fresh re-derivation of the instance's class, joined with what
// the live serving state actually answers for it.
type ExplainResponse struct {
	Inst string `json:"inst"`
	*pao.ExplainReport
	// Pattern/Status/Source describe the live serving state for the instance
	// (the explain audit itself is a re-derivation and cannot disagree with
	// the served answer unless the design or config changed under the server).
	Pattern        int    `json:"pattern"`
	Status         string `json:"status"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Source         string `json:"source"`
}

// handleExplain re-derives one pin's access decision with the audit recorder
// attached. Wrapped by admitted(), so explain traffic is rate-limited and
// slot-bounded like any query — a re-derivation runs Steps 1-2 for the whole
// class and is far heavier than an access lookup.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	st := s.curState.Load()
	if st == nil {
		http.Error(w, "analysis not loaded", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	name, pin := q.Get("inst"), q.Get("pin")
	if name == "" || pin == "" {
		http.Error(w, "missing ?inst= or ?pin= parameter", http.StatusBadRequest)
		return
	}
	// Explain re-derives over the live design; hold the read lock so an ECO
	// can't re-place instances underneath the derivation.
	s.designMu.RLock()
	defer s.designMu.RUnlock()
	inst := s.design.InstByName(name)
	if inst == nil {
		http.Error(w, "unknown instance "+name, http.StatusNotFound)
		return
	}
	sp := telemetry.SpanFrom(r.Context()).Start("explain.rederive")
	rep, err := pao.Explain(s.design, s.paoCfg, inst, pin)
	sp.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.reg().Counter("serve.explains").Inc()
	resp := ExplainResponse{
		Inst: inst.Name, ExplainReport: rep,
		Pattern: -1, Status: pao.StatusOK.String(), Source: st.source,
	}
	res := st.res
	if idx, ok := res.Selected[inst.ID]; ok && idx >= 0 {
		resp.Pattern = idx
	}
	if h := res.Health; h != nil {
		status := h.Status(rep.Class)
		resp.Status = status.String()
		if status != pao.StatusOK {
			resp.DegradedReason = h.String()
		}
	}
	if res.ByInstance[inst.ID] == nil {
		resp.Status = pao.StatusFailed.String()
		resp.DegradedReason = "class has no analysis data (quarantined or unanalyzed); live answers are fallbacks"
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.curState.Load()
	if st == nil {
		http.Error(w, "analysis not loaded", http.StatusServiceUnavailable)
		return
	}
	h := st.res.Health
	writeJSON(w, http.StatusOK, struct {
		Design   string    `json:"design"`
		Source   string    `json:"source"`
		Stats    pao.Stats `json:"stats"`
		Health   string    `json:"health,omitempty"`
		Failed   []string  `json:"failed_classes,omitempty"`
		Degraded []string  `json:"degraded_classes,omitempty"`
	}{
		Design: s.design.Name, Source: st.source, Stats: st.res.Stats,
		Health: h.String(), Failed: h.FailedClasses(), Degraded: h.DegradedClasses(),
	})
}

func (s *Server) handleReanalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	accepted, reason := s.TriggerReanalyze()
	if !accepted {
		if s.brk.current() == BreakerOpen {
			w.Header().Set("Retry-After", retryAfterSecs(s.brk.retryAfter()))
		}
		http.Error(w, "re-analysis rejected: "+reason, http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "re-analysis started"})
}

// handleAccess answers one instance's access pattern. Wrapped by admitted().
func (s *Server) handleAccess(w http.ResponseWriter, r *http.Request) {
	st := s.curState.Load()
	if st == nil {
		http.Error(w, "analysis not loaded", http.StatusServiceUnavailable)
		return
	}
	name := r.URL.Query().Get("inst")
	if name == "" {
		http.Error(w, "missing ?inst= parameter", http.StatusBadRequest)
		return
	}
	// The read side of the design lock: an ECO's Begin briefly holds the
	// write side while it re-places instances.
	s.designMu.RLock()
	inst := s.design.InstByName(name)
	if inst == nil {
		s.designMu.RUnlock()
		http.Error(w, "unknown instance "+name, http.StatusNotFound)
		return
	}
	if h := s.FaultHook; h != nil {
		h(SiteQuery, name)
	}
	sp := telemetry.SpanFrom(r.Context()).Start("access.answer")
	resp := s.answer(st, inst)
	sp.End()
	s.designMu.RUnlock()
	if resp.Degraded {
		s.reg().Counter("serve.degraded.answers").Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}

// answer builds the query response from the immutable serving state.
func (s *Server) answer(st *state, inst *db.Instance) QueryResponse {
	res := st.res
	resp := QueryResponse{Inst: inst.Name, Source: st.source, Pattern: -1, Pins: []PinAnswer{}}
	if st.ecoDirty[inst.ID] {
		// Mid-ECO window and this instance's class binding is stale: the
		// stored analysis describes its old placement, so synthesize
		// clearly-marked geometric fallbacks at the new placement.
		s.reg().Counter("serve.eco.degraded.answers").Inc()
		resp.Class = s.design.InstanceSignature(inst)
		resp.Status = pao.StatusDegraded.String()
		resp.Degraded = true
		resp.EcoPending = true
		for _, pin := range inst.Master.SignalPins() {
			resp.Pins = append(resp.Pins, fallbackAnswer(inst, pin))
		}
		return resp
	}
	ua := res.ByInstance[inst.ID]
	if ua != nil {
		resp.Class = ua.UI.Signature()
	} else {
		resp.Class = s.design.InstanceSignature(inst)
	}
	status := pao.StatusOK
	if res.Health != nil {
		status = res.Health.Status(resp.Class)
	}
	if ua == nil {
		status = pao.StatusFailed
	}
	resp.Status = status.String()
	resp.Degraded = status != pao.StatusOK

	if ua == nil {
		// No analysis for this class (quarantined in Step 1/2, or the run was
		// cancelled before reaching it): synthesize pin-shape-center fallbacks
		// so the caller still gets a usable, clearly-marked answer.
		s.reg().Counter("serve.fallback.answers").Inc()
		for _, pin := range inst.Master.SignalPins() {
			resp.Pins = append(resp.Pins, fallbackAnswer(inst, pin))
		}
		return resp
	}

	if idx, ok := res.Selected[inst.ID]; ok && idx >= 0 && idx < len(ua.Patterns) {
		resp.Pattern = idx
	}
	for _, pa := range ua.Pins {
		ap := res.AccessPointFor(inst, pa.Pin)
		if ap == nil {
			// Pin analyzed but access-less: fall back to geometry too.
			ans := fallbackAnswer(inst, pa.Pin)
			if !ans.Failed {
				resp.Degraded = true
			}
			resp.Pins = append(resp.Pins, ans)
			continue
		}
		ans := PinAnswer{
			Pin: pa.Pin.Name, X: ap.Pos.X, Y: ap.Pos.Y, Layer: ap.Layer,
			TypeX: ap.TypeX.String(), TypeY: ap.TypeY.String(),
		}
		if v := ap.Primary(); v != nil {
			ans.Via = v.Name
		}
		resp.Pins = append(resp.Pins, ans)
	}
	return resp
}

// fallbackAnswer is the degraded-path answer: the center of the pin's first
// shape on its lowest metal layer, in design coordinates.
func fallbackAnswer(inst *db.Instance, pin *db.MPin) PinAnswer {
	shapes := inst.PinShapes(pin)
	if len(shapes) == 0 {
		return PinAnswer{Pin: pin.Name, Failed: true}
	}
	best := shapes[0]
	for _, sh := range shapes[1:] {
		if sh.Layer < best.Layer {
			best = sh
		}
	}
	return PinAnswer{
		Pin:      pin.Name,
		X:        (best.Rect.XL + best.Rect.XH) / 2,
		Y:        (best.Rect.YL + best.Rect.YH) / 2,
		Layer:    best.Layer,
		Fallback: true,
	}
}
