// placementloop: the use case the paper's runtime discussion motivates —
// "support of placement optimizations (i.e., detailed placement, sizing,
// buffering), where frequent changes in placement require a tremendous
// amount of inter-cell pin access analysis" (Section IV-B).
//
// The example runs a mock detailed-placement loop: in each iteration a
// handful of cells nudge along their rows, and pin access is refreshed two
// ways — a full re-analysis from scratch, and an ECO move script applied to a
// resident pao.ECOSession, which re-analyzes only the classes, clusters and
// pins the moves can reach. Both paths must agree on the failed-pin count
// (the example exits non-zero otherwise); the speedup is the point.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/report"
	"repro/internal/suite"
)

func main() {
	scale := flag.Float64("scale", 0.05, "testcase scale factor")
	iters := flag.Int("iters", 5, "placement iterations")
	movesPer := flag.Int("moves", 8, "cell moves per iteration")
	flag.Parse()

	d, err := suite.Generate(suite.Testcases[0].Scale(*scale))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	res := a.Run()
	fmt.Printf("initial: %d unique classes, %d/%d pins clean\n\n",
		res.Stats.NumUnique, res.Stats.TotalPins-res.Stats.FailedPins, res.Stats.TotalPins)

	rng := rand.New(rand.NewSource(99))
	t := report.New("Mock detailed-placement loop: incremental ECO vs full re-analysis",
		"Iter", "#Moved", "Rechecked pins", "Incr (ms)", "Full (ms)", "Speedup", "Incr failed", "Full failed")

	sess := pao.NewECOSession(a, res)
	for it := 1; it <= *iters; it++ {
		ops := nudge(d, rng, *movesPer)

		start := time.Now()
		res, rep, err := sess.Apply(ops)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		incrMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		full := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
		fullMS := float64(time.Since(start).Microseconds()) / 1000

		t.AddRow(it, len(ops), rep.RecheckedPins, fmt.Sprintf("%.1f", incrMS), fmt.Sprintf("%.1f", fullMS),
			fmt.Sprintf("%.1fx", fullMS/incrMS), res.Stats.FailedPins, full.Stats.FailedPins)
		if res.Stats.FailedPins != full.Stats.FailedPins {
			fmt.Fprintf(os.Stderr, "MISMATCH at iteration %d: incremental %d != full %d\n",
				it, res.Stats.FailedPins, full.Stats.FailedPins)
			os.Exit(1)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nEach ECO analyzes only new unique-instance classes and classes whose pivot")
	fmt.Println("moved, re-selects the touched clusters and re-validates only the pins the")
	fmt.Println("moves can reach.")
}

// nudge plans moves of n random cells half a site sideways where the
// neighboring space allows, as an ECO script. Cells move at most once per
// script, and clearance is checked against the positions after the moves
// planned so far.
func nudge(d *db.Design, rng *rand.Rand, n int) []pao.ECOOp {
	var ops []pao.ECOOp
	planned := make(map[*db.Instance]geom.Rect) // bounding boxes after the planned moves
	box := func(inst *db.Instance) geom.Rect {
		if r, ok := planned[inst]; ok {
			return r
		}
		return inst.BBox()
	}
	tries := 0
	for len(ops) < n && tries < n*50 {
		tries++
		inst := d.Instances[rng.Intn(len(d.Instances))]
		if _, moved := planned[inst]; moved || inst.Master.Class != db.ClassCore {
			continue
		}
		delta := d.Tech.SiteWidth / 2
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		cand := geom.Pt(inst.Pos.X+delta, inst.Pos.Y)
		bbox := geom.R(cand.X, cand.Y, cand.X+inst.Master.Size.X, cand.Y+inst.Master.Size.Y)
		if !d.Die.ContainsRect(bbox.Bloat(d.Tech.SiteWidth)) {
			continue
		}
		clear := true
		for _, other := range d.Instances {
			if other != inst && box(other).Overlaps(bbox) {
				clear = false
				break
			}
		}
		if !clear {
			continue
		}
		planned[inst] = bbox
		ops = append(ops, pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: cand})
	}
	return ops
}
