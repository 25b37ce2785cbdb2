package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// pinnedExposition is the /metrics family set (name, type, label names)
// after exposeScript. Dashboards and alerts key on these names, so a rename
// or a lost label must show up here as a deliberate edit.
var pinnedExposition = []string{
	"drc_check_cut_total counter design",
	"drc_check_eol_total counter design",
	"drc_check_metal_total counter design",
	"drc_check_minstep_total counter design",
	"drc_check_pair_total counter design",
	"drc_query_count_total counter design",
	"drc_query_objects_total counter design",
	"drc_via_attempted_total counter design",
	"drc_via_clean_total counter design",
	"drc_viacache_hit_total counter design",
	"drc_viacache_miss_total counter design",
	"drc_violations_total counter design",
	"pao_access_points gauge design,layer",
	"pao_failedpins_worker_busy_seconds histogram design",
	"pao_queries_total counter design,status",
	"pao_query_seconds histogram design",
	"pao_step12_items_total counter design",
	"pao_step12_worker_busy_seconds histogram design",
	"pao_step12_worker_wait_seconds histogram design",
	"pao_step3_worker_busy_seconds histogram design",
	"pao_step_seconds histogram design,step",
	"pao_workers gauge design",
	"pao_workers_utilization gauge design",
	"serve_breaker_state gauge design",
	"serve_designs_registered_total counter ",
	"serve_eco_applied_total counter design",
	"serve_eco_ops_total counter design",
	"serve_queue_depth gauge design",
	"serve_registered_designs gauge ",
	"serve_resident_designs gauge ",
	"serve_restart_recompute_total counter design",
	"serve_tenant_admitted_total counter design,tenant",
	"serve_tenant_shed_total counter ",
}

// exposeScript drives a fresh manager through a fixed script — register,
// queries, one 400 and one ECO move — and returns its Prometheus exposition.
func exposeScript(t *testing.T) []byte {
	t.Helper()
	m := newTestManager(t, ManagerConfig{})
	h := m.Handler()
	reg := []byte(`{"id":"d1","case":"pao_test1","scale":0.01,"seed":7}`)
	if code, body := do(t, h, http.MethodPost, "/v1/designs", reg); code != http.StatusCreated {
		t.Fatalf("register = %d: %s", code, body)
	}
	d := m.ServerFor("d1").design
	for _, inst := range d.Instances[:3] {
		if code, _, body := queryInst(t, h, inst.Name); code != http.StatusOK {
			t.Fatalf("query %s = %d: %s", inst.Name, code, body)
		}
	}
	if code, _, _ := get(t, h, "/v1/access"); code != http.StatusBadRequest {
		t.Fatalf("query without inst = %d, want 400", code)
	}
	mover := d.Instances[0]
	move := fmt.Sprintf(`{"ops":[{"op":"move","inst":%q,"x":%d,"y":%d}]}`,
		mover.Name, mover.Pos.X+70, mover.Pos.Y)
	if code, body := postECO(t, h, move); code != http.StatusOK {
		t.Fatalf("eco = %d: %s", code, body)
	}
	code, _, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	return body
}

// labelNameRe matches one name="value" pair of a canonical series ID.
var labelNameRe = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)="(?:[^"\\]|\\.)*"`)

// familySet reduces a parsed scrape to sorted "family type labels" lines;
// a histogram's le label is part of its type, not of its schema.
func familySet(scrape *obs.PromScrape) []string {
	labels := map[string]string{}
	for id := range scrape.Series {
		name, rest, _ := strings.Cut(id, "{")
		if _, ok := scrape.Families[name]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok {
					if _, ok := scrape.Families[base]; ok {
						name = base
						break
					}
				}
			}
		}
		var names []string
		for _, m := range labelNameRe.FindAllStringSubmatch(rest, -1) {
			if m[1] != "le" {
				names = append(names, m[1])
			}
		}
		labels[name] = strings.Join(names, ",")
	}
	var out []string
	for name, f := range scrape.Families {
		out = append(out, name+" "+f.Type+" "+labels[name])
	}
	sort.Strings(out)
	return out
}

// TestServeExpositionPinned: paoserve's family names, types and label names
// after a fixed script equal the pinned list.
func TestServeExpositionPinned(t *testing.T) {
	body := exposeScript(t)
	scrape, err := obs.CheckProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	got := familySet(scrape)
	if strings.Join(got, "\n") != strings.Join(pinnedExposition, "\n") {
		t.Fatalf("exposition families changed:\n%s", strings.Join(got, "\n"))
	}
}
