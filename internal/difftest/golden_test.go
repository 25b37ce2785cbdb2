package difftest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/suite"
)

// update regenerates the golden snapshots:
//
//	go test ./internal/difftest -update
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

func goldenCases() []suite.Spec {
	return []suite.Spec{
		suite.Testcases[0].Scale(0.01).WithSeed(7),
		suite.Testcases[3].Scale(0.004).WithSeed(7),
		suite.AES14.Scale(0.01).WithSeed(7),
		suite.MultiHeight.Scale(0.02).WithSeed(7),
	}
}

// TestGolden pins the full-pipeline result summary of each testcase against
// its checked-in snapshot. Any behavioural change — AP counts per coordinate
// type, dirty APs, failed pins, pattern counts, clusters — fails here with a
// JSON diff, and so does any change in DRC work (every drc.* counter,
// via-cache hits and misses included) or in the canonical move's ECO scope.
// Intentional changes re-pin with -update.
func TestGolden(t *testing.T) {
	for _, spec := range goldenCases() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			got, err := Summarize(spec)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			path := filepath.Join("testdata", "golden", spec.Name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/difftest -update` to create snapshots)", err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s(re-pin intentional changes with -update)",
					spec.Name, data, want)
			}
		})
	}
}

// TestGoldenDeterminism guards the premise of the golden layer: two
// independent Summarize calls on the same spec must agree exactly.
func TestGoldenDeterminism(t *testing.T) {
	spec := suite.Testcases[0].Scale(0.01).WithSeed(7)
	a, err := Summarize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarize(spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("summaries differ across runs:\n%s\n%s", ja, jb)
	}
}
