package pao

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// ClassStatus is the per-unique-instance-class health after a run.
type ClassStatus uint8

const (
	// StatusOK: the class completed every pipeline step normally.
	StatusOK ClassStatus = iota
	// StatusDegraded: Step-3 selection was lost for the class (its cluster's
	// DP panicked); members keep the default pattern 0, which is still a
	// valid DRC-clean intra-cell pattern from Step 2.
	StatusDegraded
	// StatusFailed: Step-1/2 analysis was lost; the class has no access data
	// and its pins count as failed.
	StatusFailed
)

var classStatusNames = [...]string{"ok", "degraded", "failed"}

func (s ClassStatus) String() string {
	if int(s) < len(classStatusNames) {
		return classStatusNames[s]
	}
	return fmt.Sprintf("ClassStatus(%d)", uint8(s))
}

// Step identifies the pipeline phase a PipelineError escaped from.
type Step string

const (
	StepAnalyze    Step = "step12.analyze"
	StepWorker     Step = "step12.worker"
	StepSelect     Step = "step3.select"
	StepFailedPins Step = "failedpins"
)

// PipelineError is one recovered fault: a panic quarantined by the run
// instead of tearing down the process.
type PipelineError struct {
	Step      Step
	Signature string // unique-instance signature or cluster id ("" when not class-scoped)
	Pin       string // pin name when the fault is pin-scoped
	Recovered any    // the recovered panic value
	Stack     string // goroutine stack captured at recovery
}

func (e *PipelineError) Error() string {
	s := fmt.Sprintf("pao: recovered panic in %s", e.Step)
	if e.Signature != "" {
		s += " [" + e.Signature + "]"
	}
	if e.Pin != "" {
		s += " pin " + e.Pin
	}
	return fmt.Sprintf("%s: %v", s, e.Recovered)
}

// Health is the run's degradation report: which classes were quarantined, the
// recovered errors behind them, and whether the run was cancelled. All methods
// are safe for concurrent use; RunContext always attaches one to its Result.
type Health struct {
	mu        sync.Mutex
	classes   map[string]ClassStatus // non-ok classes only
	errors    []*PipelineError
	cancelled bool
	respawns  int
}

func newHealth() *Health {
	return &Health{classes: make(map[string]ClassStatus)}
}

// recordClass quarantines a class at the given status (never downgrading a
// failed class) and logs the recovered error behind it.
func (h *Health) recordClass(sig string, st ClassStatus, err *PipelineError) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st > h.classes[sig] {
		h.classes[sig] = st
	}
	h.errors = append(h.errors, err)
}

// Degrade marks a class degraded without logging another error: one cluster
// fault downgrades several member classes, and the distributed coordinator
// folds a worker's reported degradations into the merged result's health.
// A failed class is never downgraded.
func (h *Health) Degrade(sig string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if StatusDegraded > h.classes[sig] {
		h.classes[sig] = StatusDegraded
	}
}

// Record logs a recovered error that is not scoped to a single class, from
// the pipeline or from the distributed coordinator replaying a worker's
// reported errors.
func (h *Health) Record(err *PipelineError) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errors = append(h.errors, err)
}

// MarkCancelled latches the cancelled flag: the pipeline's context ended the
// run, or the distributed coordinator's did.
func (h *Health) MarkCancelled() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cancelled = true
}

func (h *Health) noteRespawn() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.respawns++
}

func (h *Health) errCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.errors)
}

// Status returns the class's health; classes never touched by a fault are ok.
func (h *Health) Status(sig string) ClassStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.classes[sig]
}

// FailedClasses returns the sorted signatures of classes whose Step-1/2
// analysis was lost.
func (h *Health) FailedClasses() []string { return h.classesWith(StatusFailed) }

// DegradedClasses returns the sorted signatures of classes that lost only
// their Step-3 selection.
func (h *Health) DegradedClasses() []string { return h.classesWith(StatusDegraded) }

func (h *Health) classesWith(st ClassStatus) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for sig, s := range h.classes {
		if s == st {
			out = append(out, sig)
		}
	}
	sort.Strings(out)
	return out
}

// Errors returns the recovered pipeline errors in recording order.
func (h *Health) Errors() []*PipelineError {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*PipelineError(nil), h.errors...)
}

// Cancelled reports whether the run stopped early on a context deadline or
// cancellation; the Result then holds only the work finished before the stop.
func (h *Health) Cancelled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cancelled
}

// Respawns returns how many Step-1/2 workers were replaced after dying to a
// panic that escaped the per-class recovery.
func (h *Health) Respawns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.respawns
}

// OK reports a fully healthy, uncancelled run.
func (h *Health) OK() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.classes) == 0 && len(h.errors) == 0 && !h.cancelled
}

// String is a one-line summary suitable for CLI reports.
func (h *Health) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	failed, degraded := 0, 0
	for _, s := range h.classes {
		if s == StatusFailed {
			failed++
		} else {
			degraded++
		}
	}
	s := fmt.Sprintf("health: %d failed, %d degraded classes, %d recovered errors",
		failed, degraded, len(h.errors))
	if h.respawns > 0 {
		s += fmt.Sprintf(", %d workers respawned", h.respawns)
	}
	if h.cancelled {
		s += ", cancelled"
	}
	return s
}

// publish folds the health outcome into the metrics registry. Counters are
// only created when non-zero so a clean run publishes nothing new.
func (h *Health) publish(reg *obs.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := int64(len(h.classes)); n > 0 {
		reg.Counter("pao.degraded.classes").Add(n)
	}
	if n := int64(len(h.errors)); n > 0 {
		reg.Counter("pao.panics.recovered").Add(n)
	}
	if h.cancelled {
		reg.Counter("pao.cancelled").Add(1)
	}
	if h.respawns > 0 {
		reg.Counter("pao.workers.respawned").Add(int64(h.respawns))
	}
}
