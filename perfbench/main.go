// Command perfbench is the layer ledger: one benchmark that runs the pin
// access oracle end to end (LEF/DEF parse, analysis, snapshot, serving, ECO)
// on a seeded design and reports end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced run. See README.md for the workloads and the
// metric definitions.
//
//	perfbench -workload batch_highreuse -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name: batch_highreuse, batch_lowreuse or serve_eco")
		seed     = flag.Int64("seed", 1, "workload seed: design generation, read order and ECO targets")
		secs     = flag.Int("seconds", 25, "measuring time of the run")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
		out      = flag.String("out", ".bench_build", "directory for temporary files and span JSON")
		selftest = flag.Bool("selftest", false, "run the attribution self-test instead of a workload")
		loadgen  = flag.Bool("loadgen", false, "serve as the load generator process (started by a run)")
	)
	flag.Parse()
	if *loadgen {
		if err := runLoadgen(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if *selftest {
		if err := runSelftest(*seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newRun(w, *seed, time.Duration(*secs)*time.Second, *traceOn == 1, *out)
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run holds one benchmark run's state and results.
type run struct {
	w      workload
	seed   int64
	budget time.Duration
	trace  bool
	out    string
	rng    *rand.Rand

	attempted, failed int
	problems          []string

	metrics map[string]metric
	// samples records the sample count behind each median, for the report.
	samples map[string]int

	tr *tracer
	// ledger holds the exact counts of each traced repetition, by section.
	ledger map[string][]map[string]int64
	// roots are the traced analyses' root spans; step12Alloc is the
	// allocation of each traced AnalyzeClasses call.
	roots       []int
	step12Alloc []float64
	// analyzeS is the median of the untraced analysis times analyzeSamples.
	analyzeS       float64
	analyzeSamples []float64
	// invalidWindows counts load windows whose generator stayed behind the
	// schedule.
	invalidWindows int
	// inject names the layer the self-test slows down ("" for none). With
	// alternate set, odd-numbered analysis samples are slowed and even ones
	// are not; slowed records it for each traced root.
	inject    string
	alternate bool
	slowed    []bool
}

func newRun(w workload, seed int64, budget time.Duration, trace bool, out string) *run {
	return &run{
		w: w, seed: seed, budget: budget, trace: trace, out: out,
		rng:     rand.New(rand.NewSource(seed)),
		metrics: make(map[string]metric),
		samples: make(map[string]int),
		tr:      newTracer(),
		ledger:  make(map[string][]map[string]int64),
	}
}

// op counts one attempted operation; a failed one is also a correctness
// problem.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problem(format, args...)
	}
}

func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a number", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// record adds one repetition's exact counts to a ledger section.
func (r *run) record(section string, counts map[string]int64) {
	r.ledger[section] = append(r.ledger[section], counts)
}

// checkLedger fails the run when two repetitions of a section disagree on
// any count.
func (r *run) checkLedger() {
	for section, reps := range r.ledger {
		for i := 1; i < len(reps); i++ {
			for k, v := range reps[0] {
				if reps[i][k] != v {
					r.problem("ledger %s: %s is %d in repetition 1 but %d in repetition %d", section, k, v, reps[i][k], i+1)
				}
			}
			if len(reps[i]) != len(reps[0]) {
				r.problem("ledger %s: repetitions record different counts", section)
			}
		}
	}
}

func (r *run) execute() error {
	in, err := makeInputs(r.w, r.seed)
	if err != nil {
		return err
	}
	st, err := r.runBatch(in)
	if err != nil {
		return err
	}
	if r.trace {
		r.analysisRows()
		r.designRows(st)
		r.replay(st)
		r.ecoLayer(st)
	}
	if err := r.runServe(st); err != nil {
		return err
	}
	r.checkLedger()
	if r.trace {
		return r.writeTrace()
	}
	return nil
}

// writeTrace writes the spans and the count ledger as JSON.
func (r *run) writeTrace() error {
	dir := filepath.Join(r.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string                        `json:"workload"`
		Seed     int64                         `json:"seed"`
		Spans    []span                        `json:"spans"`
		Ledger   map[string][]map[string]int64 `json:"ledger"`
	}{r.w.name, r.seed, r.tr.all(), r.ledger}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed)), b, 0o644)
}

// print writes a readable table, then the result JSON as the last line.
func (r *run) print(f *os.File) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "workload %s seed %d trace %v\n", r.w.name, r.seed, r.trace)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "  %-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "  error_rate %d/%d = %g\n", r.failed, r.attempted, errRate)
	for _, p := range r.problems {
		fmt.Fprintln(f, "  problem:", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
	b, _ := json.Marshal(res) // plain structs of floats and strings always marshal
	fmt.Fprintln(f, string(b))
}
