package serve

// Bounded slow-query log: a fixed-capacity ring of the most recent slow (or
// trace-sampled) queries, each carrying its correlation ID and, when the
// request was sampled, the full span tree as an exemplar. Served at
// GET /debug/slowlog; memory is bounded by capacity regardless of traffic.

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// SlowLogEntry is one recorded query.
type SlowLogEntry struct {
	CorrID string          `json:"corr"`
	Op     string          `json:"op"`               // access | explain | batch | eco
	Detail string          `json:"detail,omitempty"` // query string
	Status int             `json:"status,omitempty"` // HTTP status
	Start  time.Time       `json:"start"`
	DurMS  float64         `json:"dur_ms"`
	Trace  *obs.SpanExport `json:"trace,omitempty"` // exemplar when sampled
}

// SlowLogResponse answers GET /debug/slowlog.
type SlowLogResponse struct {
	Total       int64          `json:"total"` // entries ever recorded (incl. evicted)
	Capacity    int            `json:"capacity"`
	ThresholdMS float64        `json:"threshold_ms"`
	Entries     []SlowLogEntry `json:"entries"` // newest first
}

// slowLog is the ring buffer.
type slowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	buf       []SlowLogEntry
	next      int
	total     int64
}

// newSlowLog creates a ring holding up to capacity entries; queries at or
// above threshold are recorded, faster ones only when they carry a trace
// exemplar.
func newSlowLog(capacity int, threshold time.Duration) *slowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &slowLog{threshold: threshold, buf: make([]SlowLogEntry, 0, capacity)}
}

// observe records the entry when it qualifies — slower than the threshold,
// or sampled (carrying a trace exemplar) — evicting the oldest at capacity,
// and reports whether it was kept.
func (s *slowLog) observe(e SlowLogEntry, d time.Duration) bool {
	if d < s.threshold && e.Trace == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
		return true
	}
	s.buf[s.next] = e
	s.next = (s.next + 1) % len(s.buf)
	return true
}

// snapshot exports the retained entries, newest first.
func (s *slowLog) snapshot() SlowLogResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SlowLogResponse{
		Total:       s.total,
		Capacity:    cap(s.buf),
		ThresholdMS: float64(s.threshold) / 1e6,
		Entries:     make([]SlowLogEntry, 0, len(s.buf)),
	}
	// Ring order: s.next is the oldest once full; walk backwards from the
	// newest.
	for i := 1; i <= len(s.buf); i++ {
		out.Entries = append(out.Entries, s.buf[(s.next-i+len(s.buf))%len(s.buf)])
	}
	return out
}
