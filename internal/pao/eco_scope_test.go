package pao

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/db"
	"repro/internal/suite"
)

// clusterKey names a cluster by its member IDs in x order; IDs are never
// reused, so equal keys mean identical membership.
func clusterKey(cl db.Cluster) string {
	var b []byte
	for _, inst := range cl.Insts {
		b = append(strconv.AppendInt(b, int64(inst.ID), 10), ',')
	}
	return string(b)
}

// TestECOClusterScopeMatchesFullScan pins the row-local cluster scoping of
// ECOTxn.Commit to the full scan it replaced. Over seeded chained scripts on
// three suite cases, the test recomputes the full-scan rule after every
// commit: a cluster of d.Clusters() is dirty when no cluster of the pre-ECO
// partition had its member IDs, or when clusterDirty holds. The commit must
// re-select exactly that set of clusters, and report TotalClusters equal to
// len(d.Clusters()). The session's DesignHash must equal DesignHash(d) at
// the start and after every commit.
func TestECOClusterScopeMatchesFullScan(t *testing.T) {
	specs := []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[3].Scale(0.004).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
	}
	const seeds, rounds, opsPerRound = 2, 6, 5
	for _, spec := range specs {
		for seed := int64(1); seed <= seeds; seed++ {
			d, err := suite.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer(d, DefaultConfig())
			sess := NewECOSession(a, a.Run())
			if got, want := sess.DesignHash(), DesignHash(d); got != want {
				t.Fatalf("%s seed %d: session DesignHash %s before any commit, want %s", spec.Name, seed, got, want)
			}
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < rounds; round++ {
				label := fmt.Sprintf("%s seed %d round %d", spec.Name, seed, round)
				before := make(map[string]bool)
				for _, cl := range d.Clusters() {
					before[clusterKey(cl)] = true
				}
				txn, err := sess.Begin(recountScript(d, rng, opsPerRound, round))
				if err != nil {
					t.Fatalf("%s: begin: %v", label, err)
				}
				_, rep := txn.Commit()

				after := d.Clusters()
				want := make(map[string]bool)
				for _, cl := range after {
					if k := clusterKey(cl); !before[k] || txn.clusterDirty(cl) {
						want[k] = true
					}
				}
				got := make(map[string]bool)
				for _, cl := range txn.reselected {
					got[clusterKey(cl)] = true
				}
				for k := range want {
					if !got[k] {
						t.Errorf("%s: the full scan dirties cluster [%s], the commit did not re-select it", label, k)
					}
				}
				for k := range got {
					if !want[k] {
						t.Errorf("%s: the commit re-selected cluster [%s], the full scan leaves it clean", label, k)
					}
				}
				if len(got) != len(txn.reselected) || rep.DirtyClusters != len(want) {
					t.Errorf("%s: DirtyClusters %d (%d re-selected, %d distinct), full scan %d",
						label, rep.DirtyClusters, len(txn.reselected), len(got), len(want))
				}
				if rep.TotalClusters != len(after) {
					t.Errorf("%s: TotalClusters %d, d.Clusters() has %d", label, rep.TotalClusters, len(after))
				}
				if got, want := sess.DesignHash(), DesignHash(d); got != want {
					t.Fatalf("%s: session DesignHash %s, want %s", label, got, want)
				}
			}
		}
	}
}
