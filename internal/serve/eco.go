package serve

// POST /v1/eco: apply a placement ECO to the resident design and repair the
// serving result incrementally (pao.ECOSession) instead of re-running the
// whole pipeline. The endpoint sits behind the standard admission pipeline
// (rate limit, slots, panic recovery + breaker) like any other query.
//
// Concurrency contract: the design database is write-locked only for the
// brief Begin mutation; during the (longer) Commit re-analysis the server
// keeps answering from the pre-ECO result, with instances whose class
// binding went stale answering degraded fallbacks (state.ecoDirty). The
// merged result swaps in atomically, so readers never see a torn state.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/telemetry"
)

// ECOOpRequest is one placement edit on the wire.
type ECOOpRequest struct {
	Op     string `json:"op"` // move | swap | insert | delete
	Inst   string `json:"inst"`
	Other  string `json:"other,omitempty"`  // swap partner
	X      *int64 `json:"x,omitempty"`      // move/insert position
	Y      *int64 `json:"y,omitempty"`      //
	Orient string `json:"orient,omitempty"` // insert orientation, default "N"
	Master string `json:"master,omitempty"` // insert master cell
}

// ECORequest is the /v1/eco body.
type ECORequest struct {
	Ops []ECOOpRequest `json:"ops"`
}

// ECOResponse reports what the committed ECO re-computed.
type ECOResponse struct {
	Status     string         `json:"status"` // "applied"
	Report     *pao.ECOReport `json:"report"`
	DesignHash string         `json:"design_hash"`
}

// parseECOOps converts the wire ops into engine ops, rejecting structurally
// bad requests before anything touches the design.
func parseECOOps(reqs []ECOOpRequest) ([]pao.ECOOp, error) {
	ops := make([]pao.ECOOp, 0, len(reqs))
	needXY := func(i int, r ECOOpRequest) (geom.Point, error) {
		if r.X == nil || r.Y == nil {
			return geom.Point{}, fmt.Errorf("op %d: %s requires x and y", i, r.Op)
		}
		return geom.Pt(*r.X, *r.Y), nil
	}
	for i, r := range reqs {
		if r.Inst == "" {
			return nil, fmt.Errorf("op %d: missing inst", i)
		}
		switch r.Op {
		case "move":
			to, err := needXY(i, r)
			if err != nil {
				return nil, err
			}
			ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: r.Inst, To: to})
		case "swap":
			if r.Other == "" {
				return nil, fmt.Errorf("op %d: swap requires other", i)
			}
			ops = append(ops, pao.ECOOp{Kind: pao.ECOSwap, Inst: r.Inst, Other: r.Other})
		case "insert":
			to, err := needXY(i, r)
			if err != nil {
				return nil, err
			}
			if r.Master == "" {
				return nil, fmt.Errorf("op %d: insert requires master", i)
			}
			orient := geom.OrientN
			if r.Orient != "" {
				o, err := geom.ParseOrient(r.Orient)
				if err != nil {
					return nil, fmt.Errorf("op %d: %v", i, err)
				}
				orient = o
			}
			ops = append(ops, pao.ECOOp{Kind: pao.ECOInsert, Inst: r.Inst, Master: r.Master, To: to, Orient: orient})
		case "delete":
			ops = append(ops, pao.ECOOp{Kind: pao.ECODelete, Inst: r.Inst})
		default:
			return nil, fmt.Errorf("op %d: unknown op %q", i, r.Op)
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty ECO script")
	}
	return ops, nil
}

// ecoSession returns the resident ECO session, rebuilding it when the serving
// result moved underneath it (re-analysis, warm restart). Caller holds ecoMu.
func (s *Server) ecoSession() *pao.ECOSession {
	cur := s.Result()
	if s.eco != nil && s.eco.Result() == cur {
		return s.eco
	}
	a := pao.NewAnalyzer(s.design, s.paoCfg)
	a.Obs = s.Obs
	a.FaultHook = s.PaoFaultHook
	a.DRCFaultHook = s.DRCFaultHook
	s.eco = pao.NewECOSession(a, cur)
	return s.eco
}

// handleECO applies one ECO batch. Wrapped by admitted().
func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.curState.Load() == nil {
		http.Error(w, "analysis not loaded", http.StatusServiceUnavailable)
		return
	}
	var req ECORequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ops, err := parseECOOps(req.Ops)
	if err != nil {
		s.reg().Counter("serve.eco.rejected").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.ecoMu.Lock()
	defer s.ecoMu.Unlock()
	// A panic mid-transaction leaves the session unusable (design mutated,
	// result not merged): drop it so the next /v1/reanalyze + ECO recovers,
	// and let admitted() turn the panic into a 500 + breaker failure.
	defer func() {
		if rec := recover(); rec != nil {
			s.eco = nil
			s.reg().Counter("serve.eco.panics").Inc()
			panic(rec)
		}
	}()
	sess := s.ecoSession()

	// Begin mutates the design: exclude readers, but only for this window.
	s.designMu.Lock()
	txn, err := sess.Begin(ops)
	if err != nil {
		s.designMu.Unlock()
		s.reg().Counter("serve.eco.rejected").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Interim window: keep serving the pre-ECO result, degrading only the
	// instances whose class binding the ECO invalidated.
	cur := s.curState.Load()
	s.curState.Store(&state{res: cur.res, source: cur.source, ecoDirty: txn.DirtyInstances()})
	s.designMu.Unlock()

	res, rep := txn.Commit()

	// ecoMu already excludes every design writer, so the hash is computed
	// without blocking readers; designMu guards only the stored value.
	hash := pao.DesignHash(s.design)
	s.designMu.Lock()
	s.designHash = hash
	s.designMu.Unlock()
	s.swap(res, "eco")

	reg := s.reg()
	reg.Counter("serve.eco.applied").Inc()
	reg.Counter("serve.eco.ops").Add(int64(rep.Ops))
	s.Logger.InfoCtx(r.Context(), "eco applied",
		telemetry.F("ops", rep.Ops),
		telemetry.F("reanalyzed_classes", rep.ReanalyzedClasses),
		telemetry.F("total_classes", rep.TotalClasses),
		telemetry.F("dirty_clusters", rep.DirtyClusters),
		telemetry.F("total_clusters", rep.TotalClusters))
	writeJSON(w, http.StatusOK, ECOResponse{Status: "applied", Report: rep, DesignHash: hash})
}
