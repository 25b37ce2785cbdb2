package pao

import (
	"testing"

	"repro/internal/suite"
)

// TestPatternKeyCollisionFree pins the fix for the truncating byte(c+1)
// encoding: choice indices that differ by 256, and index 255 versus the -1
// no-AP sentinel, used to produce identical keys — distinct patterns were
// then silently dropped as duplicates.
func TestPatternKeyCollisionFree(t *testing.T) {
	distinct := [][2][]int{
		{{255}, {-1}},             // byte(255+1) == byte(-1+1) == 0
		{{0}, {256}},              // differ by exactly 256
		{{511, 2}, {255, 2}},      // high indices, 256 apart
		{{1, -1, 3}, {1, 255, 3}}, // sentinel vs 255 mid-vector
		{{12}, {1, 2}},            // different lengths must never alias
	}
	for _, c := range distinct {
		if patternKey(c[0]) == patternKey(c[1]) {
			t.Errorf("patternKey(%v) == patternKey(%v) = %q; want distinct keys",
				c[0], c[1], patternKey(c[0]))
		}
	}
	if patternKey([]int{3, -1, 500}) != patternKey([]int{3, -1, 500}) {
		t.Error("patternKey is not deterministic for equal vectors")
	}
}

// TestNoCacheDisablesMemoization: Config.NoCache must leave the via-verdict
// cache unbuilt so every check is live: a full run looks nothing up.
func TestNoCacheDisablesMemoization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoCache = true
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(d, cfg)
	if a.viaCache != nil {
		t.Fatal("NoCache must disable the via cache")
	}
	a.Run()
	if a.DRC.ViaChecks.Load() == 0 {
		t.Fatal("the run checked no vias; the test is vacuous")
	}
	if hits, misses := a.DRC.CacheHits.Load(), a.DRC.CacheMisses.Load(); hits+misses != 0 {
		t.Fatalf("via cache traffic with NoCache: %d hits, %d misses, want none", hits, misses)
	}
}
