// Package dist distributes the PAAF analysis across worker processes. The
// pipeline is embarrassingly parallel at two grains — unique-instance classes
// for Steps 1-2 and row clusters for Step 3 — so a Coordinator partitions
// both (consistent-hash on class signature and cluster key, chunked into
// shards) across Workers reached over an HTTP/JSON protocol whose payloads
// reuse the pao snapshot wire format, then merges the partial Results into
// one whole that is byte-identical to a single-process run.
//
// The robustness machinery is the point of the package, not the fan-out:
//
//   - every shard request runs under a per-attempt deadline with
//     cliutil.Retry jittered backoff;
//   - a slow shard is hedged to the next candidate worker after a
//     p99-derived delay, and a dead worker's shards are re-dispatched to
//     every surviving worker in turn;
//   - every payload crossing the wire is checksum-framed; a corrupt response
//     is rejected and retried, never merged;
//   - a background heartbeat tracks per-worker health feeding the Fleet()
//     view, so dispatch skips workers already known to be down;
//   - when no worker can run a shard, the coordinator computes it locally,
//     and whatever still fails lands in the Result.Health quarantine — the
//     run degrades, it does not die.
//
// Fault sites (internal/faultinject NetHook on the coordinator,
// SiteHook on the worker) cover the failure matrix in tests:
// SiteDispatch/SiteResponse for conn-drop, delay and corruption in either
// direction, SiteHeartbeat for partitioned health checks, and
// SiteWorkerShard for worker-side crashes mid-shard.
package dist

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/pao"
)

// Fault-hook site names.
const (
	// SiteDispatch fires on the coordinator with each outbound shard request
	// body; detail is "<phase>/<shard>/<worker URL>".
	SiteDispatch = "dist.dispatch"
	// SiteResponse fires on the coordinator with each inbound shard response
	// body, before the frame is opened; same detail as SiteDispatch.
	SiteResponse = "dist.response"
	// SiteHeartbeat fires on the coordinator around each health probe; detail
	// is the worker URL.
	SiteHeartbeat = "dist.heartbeat"
	// SiteWorkerShard fires on the worker before handling a shard request;
	// detail is "analyze" or "select". A panic here exercises the worker-side
	// recovery; a delay stretches the shard for hedging tests.
	SiteWorkerShard = "dist.worker.shard"
)

// Wire paths served by Worker.Handler.
const (
	pathPing    = "/v1/ping"
	pathAnalyze = "/v1/analyze"
	pathSelect  = "/v1/select"
)

// ErrFrameCorrupt marks a wire frame that failed checksum validation: the
// payload was damaged in flight. Corruption is indistinguishable from a bad
// peer, so callers retry elsewhere rather than trusting a re-read.
var ErrFrameCorrupt = errors.New("dist: payload frame corrupt")

// Frame layout: 8-byte magic, payload, 32-byte SHA-256 over magic+payload.
// Analyze responses carry a pao snapshot that is checksummed on its own, but
// framing every body uniformly means the coordinator rejects corruption in a
// single place regardless of what the payload holds.
const frameMagic = "PAODIST1"

// sealFrame wraps payload in the checksummed wire frame.
func sealFrame(payload []byte) []byte {
	buf := make([]byte, 0, len(frameMagic)+len(payload)+sha256.Size)
	buf = append(buf, frameMagic...)
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// openFrame validates and unwraps a wire frame.
func openFrame(raw []byte) ([]byte, error) {
	if len(raw) < len(frameMagic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrFrameCorrupt, len(raw))
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if string(body[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFrameCorrupt)
	}
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return body[len(frameMagic):], nil
}

// pingResponse identifies a worker: shard dispatch refuses workers whose
// design or config does not match the coordinator's.
type pingResponse struct {
	DesignName string `json:"design_name"`
	DesignHash string `json:"design_hash"`
	Config     string `json:"config"`
}

// analyzeRequest asks a worker to run Steps 1-2 for a class-signature subset.
type analyzeRequest struct {
	Sigs []string `json:"sigs"`
}

// The analyze response payload is the partial-result snapshot itself
// (pao.EncodeSnapshot bytes): decode on the coordinator revalidates the
// checksum, design hash and config fingerprint for free.

// selectRequest asks a worker to run the Step-3 DP for a cluster-key subset.
// Classes carries the merged classes the shard's clusters need, sliced into a
// partial-result snapshot — the DP must see the access patterns of every
// member instance, wherever its class was analyzed.
type selectRequest struct {
	Keys    []string `json:"keys"`
	Classes []byte   `json:"classes"`
}

// selectResponse returns the picks plus whatever degradation the DP suffered,
// so worker-side quarantine folds into the coordinator's Health exactly as a
// local run's would.
type selectResponse struct {
	Selected [][2]int    `json:"selected"` // (instance ID, pattern index), sorted by ID
	Degraded []string    `json:"degraded,omitempty"`
	Errors   []wireError `json:"errors,omitempty"`
}

// wireError is a pao.PipelineError flattened for the wire (Recovered is
// stringified, exactly as snapshot health encoding does).
type wireError struct {
	Step      string `json:"step"`
	Signature string `json:"sig,omitempty"`
	Pin       string `json:"pin,omitempty"`
	Recovered string `json:"recovered"`
	Stack     string `json:"stack,omitempty"`
}

func toWireErrors(errs []*pao.PipelineError) []wireError {
	out := make([]wireError, 0, len(errs))
	for _, e := range errs {
		out = append(out, wireError{
			Step: string(e.Step), Signature: e.Signature, Pin: e.Pin,
			Recovered: fmt.Sprint(e.Recovered), Stack: e.Stack,
		})
	}
	return out
}

func fromWireError(e wireError) *pao.PipelineError {
	return &pao.PipelineError{
		Step: pao.Step(e.Step), Signature: e.Signature, Pin: e.Pin,
		Recovered: e.Recovered, Stack: e.Stack,
	}
}
