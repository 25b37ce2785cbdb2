package pao_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/pao"
	"repro/internal/suite"
)

func partialDesign(t *testing.T) *db.Design {
	t.Helper()
	d, err := suite.Generate(suite.Testcases[0].Scale(0.01).WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// interleave splits items into n round-robin subsets, so every subset mixes
// classes from across the design order (the adversarial case for merge-order
// bugs: a merge that keeps arrival order instead of design order fails).
func interleave(items []string, n int) [][]string {
	out := make([][]string, n)
	for i, it := range items {
		out[i%n] = append(out[i%n], it)
	}
	return out
}

// TestPartialSliceMergeRoundTrip is the coordinator's merge primitive pinned
// at the wire level: a Result sliced to class subsets, each subset shipped
// through the snapshot format (encode -> decode), and the decoded partials
// merged back, must re-encode byte-identically to the original full snapshot.
func TestPartialSliceMergeRoundTrip(t *testing.T) {
	d := partialDesign(t)
	cfg := pao.DefaultConfig()
	full := pao.NewAnalyzer(d, cfg).Run()
	want := pao.EncodeCounts(t, d, cfg, full)

	var sigs []string
	for _, ui := range d.UniqueInstances() {
		sigs = append(sigs, ui.Signature())
	}
	if len(sigs) < 3 {
		t.Fatalf("testcase has only %d classes; the split is vacuous", len(sigs))
	}
	var parts []*pao.Result
	for _, shard := range interleave(sigs, 3) {
		sliced := pao.SliceResult(full, shard)
		var wire bytes.Buffer
		if err := pao.EncodeSnapshot(&wire, d, cfg, sliced); err != nil {
			t.Fatal(err)
		}
		decoded, err := pao.DecodeSnapshot(bytes.NewReader(wire.Bytes()), d, cfg)
		if err != nil {
			t.Fatalf("partial snapshot did not round-trip: %v", err)
		}
		parts = append(parts, decoded)
	}
	// A duplicate partial (hedged shard arriving twice) and a nil (lost
	// worker) must both be harmless.
	parts = append(parts, parts[0], nil)
	merged := pao.MergeResults(d, parts...)
	merged.Stats.TotalPins = full.Stats.TotalPins
	merged.Stats.FailedPins = full.Stats.FailedPins
	got := pao.EncodeCounts(t, d, cfg, merged)
	if !bytes.Equal(got, want) {
		t.Fatalf("slice -> wire -> merge is not the identity: %d vs %d bytes", len(got), len(want))
	}
}

// TestAnalyzeSelectShardsEquivalence drives the full distributed decomposition
// in-process: Steps 1-2 sharded by class via AnalyzeClasses, merged, default
// selections seeded, Step 3 sharded by cluster via SelectClusters, and the
// failed-pin recount done once at the end — byte-identical to RunContext.
func TestAnalyzeSelectShardsEquivalence(t *testing.T) {
	d := partialDesign(t)
	cfg := pao.DefaultConfig()
	full := pao.NewAnalyzer(d, cfg).Run()
	want := pao.EncodeCounts(t, d, cfg, full)

	var sigs []string
	for _, ui := range d.UniqueInstances() {
		sigs = append(sigs, ui.Signature())
	}
	ctx := context.Background()
	var parts []*pao.Result
	for _, shard := range interleave(sigs, 3) {
		// A fresh analyzer per shard mirrors separate worker processes.
		part, err := pao.NewAnalyzer(d, cfg).AnalyzeClasses(ctx, shard)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	merged := pao.MergeResults(d, parts...)
	pao.SeedDefaultSelections(d, merged)

	var keys []string
	for _, cl := range d.Clusters() {
		keys = append(keys, pao.ClusterKey(cl))
	}
	for _, shard := range interleave(keys, 2) {
		a := pao.NewAnalyzer(d, cfg)
		picks, h, err := a.SelectClusters(ctx, merged, a.GlobalEngine(), shard)
		if err != nil {
			t.Fatal(err)
		}
		if !h.OK() {
			t.Fatalf("selection shard degraded unexpectedly: %s", h)
		}
		for inst, ni := range picks {
			merged.Selected[inst] = ni
		}
	}
	fin := pao.NewAnalyzer(d, cfg)
	fin.CountFailedPins(merged, fin.GlobalEngine())

	got := pao.EncodeCounts(t, d, cfg, merged)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded analyze+select differs from single-process run: %d vs %d bytes",
			len(got), len(want))
	}
}

func TestAnalyzeClassesUnknownSignature(t *testing.T) {
	d := partialDesign(t)
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	_, err := a.AnalyzeClasses(context.Background(), []string{"NO_SUCH/N/0"})
	if err == nil || !strings.Contains(err.Error(), "not in design") {
		t.Fatalf("unknown signature must be a protocol error, got %v", err)
	}
}

func TestSelectClustersUnknownKey(t *testing.T) {
	d := partialDesign(t)
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	res := pao.NewAnalyzer(d, pao.DefaultConfig()).Run()
	_, _, err := a.SelectClusters(context.Background(), res, a.GlobalEngine(), []string{"cluster:nope"})
	if err == nil || !strings.Contains(err.Error(), "not in design") {
		t.Fatalf("unknown cluster key must be a protocol error, got %v", err)
	}
}

// TestAnalyzeClassesCancelled pins the degradation contract: a cancelled
// context yields a partial result with Health.Cancelled set and ctx.Err()
// returned, never a nil result.
func TestAnalyzeClassesCancelled(t *testing.T) {
	d := partialDesign(t)
	a := pao.NewAnalyzer(d, pao.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sigs []string
	for _, ui := range d.UniqueInstances() {
		sigs = append(sigs, ui.Signature())
	}
	res, err := a.AnalyzeClasses(ctx, sigs)
	if err == nil {
		t.Fatal("cancelled AnalyzeClasses must return ctx.Err()")
	}
	if res == nil || !res.Health.Cancelled() {
		t.Fatal("cancelled AnalyzeClasses must return a partial result with Cancelled health")
	}
}
