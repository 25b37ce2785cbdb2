package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/obs"
	"repro/internal/pao"
)

// Worker answers shard requests against its own copy of the design (loaded
// from the same inputs the coordinator used — the shared-volume model, like
// TritonRoute's distributed workers). Workers are stateless between shards:
// every request carries everything the shard needs, which is what makes
// hedging and relocation trivially safe — two workers computing the same
// shard return identical payloads, and a worker killed mid-shard leaves
// nothing to clean up.
type Worker struct {
	Design *db.Design
	Cfg    pao.Config
	// Obs receives worker-side shard counters when set, and the analyzer's
	// spans and DRC counters. Set it before the first shard.
	Obs *obs.Observer
	// FaultHook, when set, fires at SiteWorkerShard before each shard is
	// handled (test-only chaos: delays to stretch a shard, panics to exercise
	// the 500-and-survive path).
	FaultHook func(site, detail string)

	// mu serializes shard handling: the analyzer's lazy net map is not
	// goroutine-safe, and shards are large enough that request-level
	// parallelism would buy nothing over the analyzer's own worker pool.
	mu       sync.Mutex
	analyzer *pao.Analyzer
	eng      *drc.Engine

	designHash string
	configFP   string
}

// NewWorker builds a worker for the design under cfg.
func NewWorker(d *db.Design, cfg pao.Config) *Worker {
	return &Worker{
		Design:     d,
		Cfg:        cfg,
		designHash: pao.DesignHash(d),
		configFP:   pao.ConfigFingerprint(cfg),
	}
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathPing, w.handlePing)
	mux.HandleFunc(pathAnalyze, w.recovered("analyze", w.handleAnalyze))
	mux.HandleFunc(pathSelect, w.recovered("select", w.handleSelect))
	return mux
}

// lazyAnalyzer returns the worker's analyzer, bound to w.Obs, created on
// first use and reused across shards so the shared ViaCache stays warm for
// this worker's arc of the signature ring. Callers hold w.mu.
func (w *Worker) lazyAnalyzer() *pao.Analyzer {
	if w.analyzer == nil {
		w.analyzer = pao.NewAnalyzer(w.Design, w.Cfg)
		w.analyzer.Observe(w.Obs)
	}
	return w.analyzer
}

// lazyEngine returns the fixed-design engine for Step-3 shards. Select shards
// only read it (the failed-pin recount, which mutates, is coordinator-local),
// so one engine serves every request. Callers hold w.mu.
func (w *Worker) lazyEngine() *drc.Engine {
	if w.eng == nil {
		w.eng = w.lazyAnalyzer().GlobalEngine()
	}
	return w.eng
}

// recovered wraps a shard handler with panic recovery: an escaped panic
// (injected or real) answers 500 and the worker keeps serving — the
// coordinator's retry machinery owns the failure, not the process lifecycle.
func (w *Worker) recovered(phase string, h http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		defer func() {
			if r := recover(); r != nil {
				w.Obs.Reg().Counter("dist.worker.panics").Add(1)
				http.Error(rw, fmt.Sprintf("shard panic: %v\n%s", r, debug.Stack()),
					http.StatusInternalServerError)
			}
		}()
		if hook := w.FaultHook; hook != nil {
			hook(SiteWorkerShard, phase)
		}
		h(rw, req)
	}
}

func (w *Worker) handlePing(rw http.ResponseWriter, req *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(pingResponse{
		DesignName: w.Design.Name,
		DesignHash: w.designHash,
		Config:     w.configFP,
	})
}

// readFramed reads and unwraps a framed request body; a corrupt frame is the
// client's problem (400), not the worker's.
func readFramed(rw http.ResponseWriter, req *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	payload, err := openFrame(raw)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return payload, true
}

func writeFramed(rw http.ResponseWriter, payload []byte) {
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(sealFrame(payload))
}

func (w *Worker) handleAnalyze(rw http.ResponseWriter, req *http.Request) {
	payload, ok := readFramed(rw, req)
	if !ok {
		return
	}
	var ar analyzeRequest
	if err := json.Unmarshal(payload, &ar); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	part, err := w.lazyAnalyzer().AnalyzeClasses(req.Context(), ar.Sigs)
	if err != nil {
		// Unknown signatures (protocol mismatch) and cancelled shards both
		// surface as errors; neither may be merged as a success.
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	var snap bytes.Buffer
	if err := pao.EncodeSnapshot(&snap, w.Design, w.Cfg, part); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Obs.Reg().Counter("dist.worker.shards.analyze").Add(1)
	writeFramed(rw, snap.Bytes())
}

func (w *Worker) handleSelect(rw http.ResponseWriter, req *http.Request) {
	payload, ok := readFramed(rw, req)
	if !ok {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	resp, err := selectShard(req.Context(), w.lazyAnalyzer(), w.lazyEngine(), payload)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.As(err, new(badShard)) {
			code = http.StatusBadRequest
		}
		http.Error(rw, err.Error(), code)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Obs.Reg().Counter("dist.worker.shards.select").Add(1)
	writeFramed(rw, body)
}

// badShard is a select payload that does not decode: the client's fault.
type badShard struct{ error }

// selectShard computes one Step-3 shard from its unframed request payload with
// the analyzer a and its fixed-design engine — the work a worker's /v1/select
// and the coordinator's local fallback share. The shipped classes ride the
// snapshot format, so checksum, design hash and config fingerprint are
// validated before any selection runs; a payload that does not decode is a
// badShard. The picks come back sorted by instance ID.
func selectShard(ctx context.Context, a *pao.Analyzer, eng *drc.Engine, payload []byte) (*selectResponse, error) {
	var sr selectRequest
	if err := json.Unmarshal(payload, &sr); err != nil {
		return nil, badShard{err}
	}
	classes, err := pao.DecodeSnapshot(bytes.NewReader(sr.Classes), a.Design, a.Cfg)
	if err != nil {
		return nil, badShard{err}
	}
	picks, health, err := a.SelectClusters(ctx, classes, eng, sr.Keys)
	if err != nil {
		return nil, err
	}
	resp := &selectResponse{
		Degraded: health.DegradedClasses(),
		Errors:   toWireErrors(health.Errors()),
	}
	for id, idx := range picks {
		resp.Selected = append(resp.Selected, [2]int{id, idx})
	}
	sort.Slice(resp.Selected, func(a, b int) bool { return resp.Selected[a][0] < resp.Selected[b][0] })
	return resp, nil
}
