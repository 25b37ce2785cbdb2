package difftest

import (
	"bytes"
	"testing"

	"repro/internal/pao"
	"repro/internal/suite"
)

// TestCachedUncachedEquivalence is the differential guard for the analyzer's
// memoization layer (the shared via-drop verdict cache): with the cache on
// and off, a full run over each suite testcase must produce byte-identical
// result snapshots, each encoded under its own config. The cache is pure
// memoization — any divergence here means a cache key is
// under-discriminating.
func TestCachedUncachedEquivalence(t *testing.T) {
	specs := []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[3].Scale(0.004).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := suite.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := pao.DefaultConfig()
			ac := pao.NewAnalyzer(d, cfg)
			cached := ac.Run()

			off := cfg
			off.NoCache = true
			uncached := pao.NewAnalyzer(d, off).Run()

			if ac.DRC.CacheHits.Load()+ac.DRC.CacheMisses.Load() == 0 {
				t.Fatal("via cache was not exercised; the comparison is vacuous")
			}
			if cached.Stats.Counts() != uncached.Stats.Counts() {
				t.Fatalf("stats diverge:\ncached   %+v\nuncached %+v",
					cached.Stats.Counts(), uncached.Stats.Counts())
			}
			// Wall-clock step timings are part of the snapshot but are never
			// deterministic; zero them so the byte compare covers exactly the
			// result content (classes, APs, patterns, selections, health).
			cached.Stats = cached.Stats.Counts()
			uncached.Stats = uncached.Stats.Counts()
			var bc, bu bytes.Buffer
			if err := pao.EncodeSnapshot(&bc, d, cfg, cached); err != nil {
				t.Fatal(err)
			}
			if err := pao.EncodeSnapshot(&bu, d, off, uncached); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bc.Bytes(), bu.Bytes()) {
				t.Fatalf("snapshots diverge: cached %d bytes, uncached %d bytes",
					bc.Len(), bu.Len())
			}
		})
	}
}
