package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// runSelftest checks that the ledger attributes a slowdown to the layer that
// has it. On batch_highreuse, one traced batch run alternates plain analysis
// samples with samples that sleep a fifth of Step 3's own time after each
// SelectPatterns call (in the traced composition and, through the analyzer's
// fault hook, in RunContext); alternating cancels the machine's slow drift.
// It passes when pao.step3.s and analyze_s rise by at least half the
// injected delay and every other row stays within its bound: 10% of its
// median or a quarter of the injected delay, whichever is larger.
func runSelftest(seed int64, out string) error {
	w, err := findWorkload("batch_highreuse")
	if err != nil {
		return err
	}
	in, err := makeInputs(w, seed)
	if err != nil {
		return err
	}
	r := newRun(w, seed, 120*time.Second, true, out)
	r.alternate = true
	if _, err := r.runBatch(in); err != nil {
		return err
	}
	if len(r.problems) > 0 {
		return fmt.Errorf("run problems: %v", r.problems)
	}
	// Sample i is slowed when i is odd; each slowed sample is compared with
	// the plain one just before it, so the two ran under the same load.
	names := map[string]string{"pao.step12": "pao.step12.s", "drc.engine": "drc.engine.s",
		"pao.step3": "pao.step3.s", "pao.failedpins": "pao.failedpins.s", "analyze": "pao.other.s"}
	base := make(map[string][]float64)
	delta := make(map[string][]float64)
	pairRows := func(plain, slowed map[string]float64) {
		for n, v := range plain {
			base[n] = append(base[n], v)
			delta[n] = append(delta[n], slowed[n]-v)
		}
	}
	for i := 1; i < len(r.roots); i += 2 {
		plain, slowed := map[string]float64{}, map[string]float64{}
		for span, secs := range r.tr.selfTimes(r.roots[i-1]) {
			plain[names[span]] = secs
		}
		for span, secs := range r.tr.selfTimes(r.roots[i]) {
			slowed[names[span]] = secs
		}
		pairRows(plain, slowed)
	}
	for i := 1; i < len(r.analyzeSamples); i += 2 {
		pairRows(map[string]float64{"analyze_s": r.analyzeSamples[i-1]},
			map[string]float64{"analyze_s": r.analyzeSamples[i]})
	}
	type row struct {
		Base, Delta float64
		Bound       float64 `json:",omitempty"`
		Pass        bool
	}
	report := make(map[string]row)
	injected := median(base["pao.step3.s"]) / 5
	pass := true
	for _, n := range []string{"pao.step12.s", "drc.engine.s", "pao.step3.s", "pao.failedpins.s", "pao.other.s", "analyze_s"} {
		rw := row{Base: median(base[n]), Delta: median(delta[n])}
		switch n {
		case "pao.step3.s", "analyze_s":
			rw.Pass = rw.Delta >= injected/2
		default:
			rw.Bound = math.Max(0.1*rw.Base, injected/4)
			rw.Pass = math.Abs(rw.Delta) <= rw.Bound
		}
		pass = pass && rw.Pass
		report[n] = rw
	}
	b, _ := json.MarshalIndent(struct {
		InjectedS float64
		Pairs     int
		Rows      map[string]row
		Pass      bool
	}{injected, len(delta["pao.step3.s"]), report, pass}, "", "  ")
	fmt.Println(string(b))
	if !pass {
		os.Exit(1)
	}
	return nil
}
