package bench

// The eco_reanalysis scenario (BENCH_PR7.json): how much work a single-
// instance ECO re-does compared to a full pipeline run. Kept out of
// Scenarios() so the BENCH_PR10.json regression gate is untouched;
// cmd/paobench emits this report separately via -eco-out.
//
// Machine-independent quantities carried in the report, in gate order:
//   - DirtyClasses vs TotalClasses and DirtyClusters vs TotalClusters for a
//     single signature-changing move (the scoping claim);
//   - AllocsPerOp for the ECO apply loop.

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/suite"
)

// ECOEntry is one testcase's ECO-vs-full measurement.
type ECOEntry struct {
	Testcase string `json:"testcase"`

	// Scoping counts from a canonical single-instance signature-changing
	// move (machine-independent).
	TotalClasses  int `json:"total_classes"`
	DirtyClasses  int `json:"dirty_classes"`
	TotalClusters int `json:"total_clusters"`
	DirtyClusters int `json:"dirty_clusters"`

	// Full is a fresh full analysis; ECO is one incremental apply of the
	// same move. Speedup is full ns/op over ECO ns/op.
	Full    Metrics `json:"full"`
	ECO     Metrics `json:"eco"`
	Speedup float64 `json:"speedup"`
}

// ECOBenchReport is the BENCH_PR7.json artifact. Like Report, it carries no
// timestamps or host identifiers.
type ECOBenchReport struct {
	Scale   float64    `json:"scale"`
	Entries []ECOEntry `json:"entries"`
}

// Write emits the report as stable, indented JSON.
func (r ECOBenchReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ecoFixturePrep generates the design, runs the full analysis with the
// shared cache on, and returns the analyzer, result and a signature-changing
// move for a mid-design instance (x+70 flips the M2 phase on every suite
// node, whose pitches are all multiples of 140).
func ecoFixturePrep(spec suite.Spec, scale float64) (*pao.Analyzer, *pao.Result, pao.ECOOp, error) {
	d, err := suite.Generate(spec.Scale(scale).WithSeed(7))
	if err != nil {
		return nil, nil, pao.ECOOp{}, err
	}
	if len(d.Instances) < 4 {
		return nil, nil, pao.ECOOp{}, fmt.Errorf("%s: too few instances at scale %g", spec.Name, scale)
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	res := a.Run()
	inst := d.Instances[len(d.Instances)/2]
	op := pao.ECOOp{Kind: pao.ECOMove, Inst: inst.Name, To: geom.Pt(inst.Pos.X+70, inst.Pos.Y)}
	return a, res, op, nil
}

// MeasureECO builds the eco_reanalysis report at the given suite scale.
func MeasureECO(scale float64, progress func(string)) (ECOBenchReport, error) {
	rep := ECOBenchReport{Scale: scale}
	for _, spec := range specs() {
		e := ECOEntry{Testcase: spec.Name}

		// Scoping counts, measured once outside the timed loops so the
		// numbers are deterministic.
		a, res, op, err := ecoFixturePrep(spec, scale)
		if err != nil {
			return rep, err
		}
		sess := pao.NewECOSession(a, res)
		_, r, err := sess.Apply([]pao.ECOOp{op})
		if err != nil {
			return rep, fmt.Errorf("%s: %w", spec.Name, err)
		}
		e.TotalClasses = r.TotalClasses
		e.DirtyClasses = r.ReanalyzedClasses
		e.TotalClusters = r.TotalClusters
		e.DirtyClusters = r.DirtyClusters

		// Timed: a fresh full run per iteration.
		spec := spec
		var prepErr error
		rf := testing.Benchmark(func(b *testing.B) {
			d, err := suite.Generate(spec.Scale(scale).WithSeed(7))
			if err != nil {
				prepErr = err
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
			}
		})
		if prepErr != nil {
			return rep, fmt.Errorf("%s: %w", spec.Name, prepErr)
		}
		e.Full = Metrics{
			NsPerOp: float64(rf.NsPerOp()), AllocsPerOp: rf.AllocsPerOp(),
			BytesPerOp: rf.AllocedBytesPerOp(), Iterations: rf.N,
		}

		// Timed: one resident session, the instance shuttling between its
		// two placements — every iteration is a real signature-changing ECO.
		re := testing.Benchmark(func(b *testing.B) {
			a, res, op, err := ecoFixturePrep(spec, scale)
			if err != nil {
				prepErr = err
				b.Fatal(err)
			}
			sess := pao.NewECOSession(a, res)
			home := a.Design.InstByName(op.Inst).Pos
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				to := op.To
				if i%2 == 1 {
					to = home
				}
				if _, _, err := sess.Apply([]pao.ECOOp{{Kind: pao.ECOMove, Inst: op.Inst, To: to}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if prepErr != nil {
			return rep, fmt.Errorf("%s: %w", spec.Name, prepErr)
		}
		e.ECO = Metrics{
			NsPerOp: float64(re.NsPerOp()), AllocsPerOp: re.AllocsPerOp(),
			BytesPerOp: re.AllocedBytesPerOp(), Iterations: re.N,
		}
		if e.ECO.NsPerOp > 0 {
			e.Speedup = e.Full.NsPerOp / e.ECO.NsPerOp
		}
		if progress != nil {
			progress(fmt.Sprintf("%-22s dirty %d/%d classes, %d/%d clusters; eco %12.0f ns/op vs full %12.0f ns/op (%.1fx)",
				spec.Name, e.DirtyClasses, e.TotalClasses, e.DirtyClusters, e.TotalClusters,
				e.ECO.NsPerOp, e.Full.NsPerOp, e.Speedup))
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}
