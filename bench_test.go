// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation section (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1SuiteGen    — Table I   (testcase generation)
//	BenchmarkTable2Exp1        — Table II  (access point quality, TrRte vs PAAF)
//	BenchmarkTable3Exp2        — Table III (failed pins, TrRte vs PAAF w/o / w/ BCA)
//	BenchmarkFig8Exp3          — Fig. 8 / Experiment 3 (routed DRCs by access mode)
//	BenchmarkFig9Aes14nm       — Fig. 9 (14 nm off-track study)
//	BenchmarkAblation*         — design-choice sweeps DESIGN.md calls out
//	Benchmark{Step1,DP,...}    — microbenchmarks of the framework's hot paths
//
// Benchmarks run the suite at bench scale (cells and nets scaled down
// proportionally; set -benchscale to push further toward Table I sizes).
// Key result quantities are attached as custom metrics so the paper-shape
// claims are visible straight from the benchmark output.
package repro

import (
	"flag"
	"testing"

	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/geom"
	"repro/internal/pao"
	"repro/internal/router"
	"repro/internal/suite"
)

var benchScale = flag.Float64("benchscale", 0.01, "suite scale factor for benchmarks")

func BenchmarkTable1SuiteGen(b *testing.B) {
	for _, spec := range suite.Testcases {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			var cells int
			for i := 0; i < b.N; i++ {
				d, err := suite.Generate(spec.Scale(*benchScale))
				if err != nil {
					b.Fatal(err)
				}
				cells = d.NumStdCells()
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

func BenchmarkTable2Exp1(b *testing.B) {
	for _, spec := range suite.Testcases {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			var row exp.Exp1Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = exp.RunExp1(spec, *benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.NumUnique), "uniqueInsts")
			b.ReportMetric(float64(row.PaafAPs), "paafAPs")
			b.ReportMetric(float64(row.TrAPs), "trrteAPs")
			b.ReportMetric(float64(row.PaafDirty), "paafDirty")
			b.ReportMetric(float64(row.TrDirty), "trrteDirty")
		})
	}
}

func BenchmarkTable3Exp2(b *testing.B) {
	for _, spec := range suite.Testcases {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			var row exp.Exp2Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = exp.RunExp2(spec, *benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.TotalPins), "pins")
			b.ReportMetric(float64(row.TrFailed), "trrteFailed")
			b.ReportMetric(float64(row.NoBCAFailed), "noBcaFailed")
			b.ReportMetric(float64(row.BCAFailed), "bcaFailed")
		})
	}
}

func BenchmarkFig8Exp3(b *testing.B) {
	// The routing experiment runs on pao_test5, as in the paper.
	scale := *benchScale
	if scale > 0.02 {
		scale = 0.02 // the substrate router is not built for contest sizes
	}
	for _, mode := range []router.AccessMode{router.AccessAdHoc, router.AccessPAAF} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var viol, accessViol int
			for i := 0; i < b.N; i++ {
				d, err := suite.Generate(suite.Testcases[4].Scale(scale))
				if err != nil {
					b.Fatal(err)
				}
				a := pao.NewAnalyzer(d, pao.DefaultConfig())
				cfg := router.Config{Mode: mode}
				if mode == router.AccessPAAF {
					cfg.Access = a.Run()
				}
				r, err := router.New(d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := r.Route()
				router.Check(a, res)
				viol = len(res.Violations)
				accessViol = res.AccessViolations
			}
			b.ReportMetric(float64(viol), "DRCs")
			b.ReportMetric(float64(accessViol), "accessDRCs")
		})
	}
}

func BenchmarkFig9Aes14nm(b *testing.B) {
	b.ReportAllocs()
	var res exp.AES14Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.RunAES14(*benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Failed), "failedPins")
	b.ReportMetric(float64(res.OffTrack), "offTrackAPs")
	b.ReportMetric(float64(res.TotalAPs), "APs")
}

// --- Ablation benches ------------------------------------------------------

func benchConfig(b *testing.B, cfg pao.Config) {
	b.Helper()
	b.ReportAllocs()
	d, err := suite.Generate(suite.Testcases[0].Scale(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats pao.Stats
	for i := 0; i < b.N; i++ {
		res := pao.NewAnalyzer(d, cfg).Run()
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.FailedPins), "failedPins")
	b.ReportMetric(float64(stats.TotalAPs), "APs")
	b.ReportMetric(float64(stats.PatternsDropped), "droppedPatterns")
}

func BenchmarkAblationBCA(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchConfig(b, pao.DefaultConfig()) })
	b.Run("off", func(b *testing.B) {
		cfg := pao.DefaultConfig()
		cfg.BCA = false
		benchConfig(b, cfg)
	})
}

func BenchmarkAblationHistory(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchConfig(b, pao.DefaultConfig()) })
	b.Run("off", func(b *testing.B) {
		cfg := pao.DefaultConfig()
		cfg.HistoryAware = false
		benchConfig(b, cfg)
	})
}

func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 3, 5} {
		k := k
		b.Run(map[int]string{1: "k1", 3: "k3", 5: "k5"}[k], func(b *testing.B) {
			cfg := pao.DefaultConfig()
			cfg.K = k
			benchConfig(b, cfg)
		})
	}
}

func BenchmarkAblationCoordTypes(b *testing.B) {
	b.Run("all", func(b *testing.B) { benchConfig(b, pao.DefaultConfig()) })
	b.Run("onTrackOnly", func(b *testing.B) {
		cfg := pao.DefaultConfig()
		cfg.AllowedTypes = []pao.CoordType{pao.OnTrack}
		benchConfig(b, cfg)
	})
}

// --- Microbenchmarks -------------------------------------------------------

func BenchmarkStep1AccessPoints(b *testing.B) {
	d, err := suite.Generate(suite.Testcases[0].Scale(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	uis := d.UniqueInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AnalyzeUnique(uis[i%len(uis)])
	}
}

func BenchmarkBaselineAnalyze(b *testing.B) {
	d, err := suite.Generate(suite.Testcases[0].Scale(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Analyze(d)
	}
}

func BenchmarkUniqueInstanceExtraction(b *testing.B) {
	d, err := suite.Generate(suite.Testcases[3].Scale(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.UniqueInstances()
	}
}

func BenchmarkGeomUnionRects(b *testing.B) {
	rects := []geom.Rect{
		geom.R(0, 0, 1000, 70), geom.R(0, 0, 70, 1000), geom.R(500, 0, 570, 800),
		geom.R(200, 300, 900, 370), geom.R(850, 300, 920, 900),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.UnionRects(rects)
	}
}

func BenchmarkGeomMaxRects(b *testing.B) {
	rects := []geom.Rect{
		geom.R(0, 0, 1000, 70), geom.R(0, 0, 70, 1000), geom.R(500, 0, 570, 800),
		geom.R(200, 300, 900, 370),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.MaxRects(rects)
	}
}

func BenchmarkWorkers(b *testing.B) {
	// The paper's future-work item (ii): multi-threaded Steps 1-2.
	d, err := suite.Generate(suite.Testcases[3].Scale(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[w], func(b *testing.B) {
			b.ReportAllocs()
			cfg := pao.DefaultConfig()
			cfg.Workers = w
			var stats pao.Stats
			for i := 0; i < b.N; i++ {
				stats = pao.NewAnalyzer(d, cfg).Run().Stats
			}
			b.ReportMetric(float64(stats.FailedPins), "failedPins")
		})
	}
}

func BenchmarkDRCCheckAll(b *testing.B) {
	d, err := suite.Generate(suite.Testcases[0].Scale(*benchScale * 2))
	if err != nil {
		b.Fatal(err)
	}
	eng := pao.NewAnalyzer(d, pao.DefaultConfig()).GlobalEngine()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.CheckAllParallel(1)
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.CheckAllParallel(4)
		}
	})
}
