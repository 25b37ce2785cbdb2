package serve

// POST /v1/access/batch: answer N instances in one request, amortizing HTTP
// overhead for bulk consumers (a router warming its access map, a library
// verification sweep). The batch holds ONE execution slot but is
// admission-charged per instance: the tenant's token bucket pays N tokens and
// the fair dequeue weights the request by N, so a giant batch cannot
// monopolize a design's queue — other tenants' single queries interleave
// ahead of it in proportion.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// BatchRequest is the /v1/access/batch body.
type BatchRequest struct {
	Instances []string `json:"instances"`
}

// BatchAnswer is one instance's slot in a batch response: either a full query
// answer or a per-instance error (unknown instance), never a whole-batch
// failure.
type BatchAnswer struct {
	QueryResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse answers /v1/access/batch.
type BatchResponse struct {
	Design  string        `json:"design"`
	Count   int           `json:"count"`
	Answers []BatchAnswer `json:"answers"`
}

// maxBatch caps the instances per batch request; maxBatchBody caps its body,
// ~64 bytes per instance name at the instance cap, with generous slack for
// JSON framing.
const (
	maxBatch     = 256
	maxBatchBody = 1 << 20
)

// batchCtxKey carries the parsed batch body from batchCost (which must read
// it to price admission) to handleBatch.
type batchCtxKey struct{}

// batchCost parses and validates the batch body up front and returns the
// per-instance admission charge. Runs inside admittedCost, before the rate
// limiter.
func (s *Server) batchCost(r *http.Request) (*http.Request, int, error) {
	if r.Method != http.MethodPost {
		return nil, 0, &admitError{code: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	var req BatchRequest
	body := http.MaxBytesReader(nil, r.Body, maxBatchBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		if _, ok := err.(*http.MaxBytesError); ok {
			return nil, 0, &admitError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("batch body exceeds %d bytes", maxBatchBody)}
		}
		return nil, 0, fmt.Errorf("bad batch body: %v", err)
	}
	if len(req.Instances) == 0 {
		return nil, 0, fmt.Errorf("empty batch")
	}
	if len(req.Instances) > maxBatch {
		return nil, 0, fmt.Errorf("batch of %d exceeds the %d-instance cap", len(req.Instances), maxBatch)
	}
	r = r.WithContext(context.WithValue(r.Context(), batchCtxKey{}, &req))
	return r, len(req.Instances), nil
}

// handleBatch answers every instance in the parsed batch from one immutable
// state load. Wrapped by admittedCost(batchCost).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := s.curState.Load()
	if st == nil {
		http.Error(w, "analysis not loaded", http.StatusServiceUnavailable)
		return
	}
	req, _ := r.Context().Value(batchCtxKey{}).(*BatchRequest)
	if req == nil {
		http.Error(w, "batch body missing", http.StatusInternalServerError)
		return
	}
	resp := BatchResponse{Design: s.design.Name, Answers: make([]BatchAnswer, 0, len(req.Instances))}
	s.designMu.RLock()
	for _, name := range req.Instances {
		inst := s.design.InstByName(name)
		if inst == nil {
			resp.Answers = append(resp.Answers, BatchAnswer{
				QueryResponse: QueryResponse{Inst: name, Pins: []PinAnswer{}},
				Error:         "unknown instance",
			})
			continue
		}
		if h := s.FaultHook; h != nil {
			h(SiteQuery, name)
		}
		ans := BatchAnswer{QueryResponse: s.answer(st, inst)}
		if ans.Degraded {
			s.reg().Counter("serve.degraded.answers").Inc()
		}
		resp.Answers = append(resp.Answers, ans)
	}
	s.designMu.RUnlock()
	resp.Count = len(resp.Answers)
	s.reg().Counter("serve.batch.instances").Add(int64(len(req.Instances)))
	writeJSON(w, http.StatusOK, resp)
}
