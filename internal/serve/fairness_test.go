package serve

// Fairness tests: per-tenant token buckets isolate rate limits, and the
// deficit-round-robin dequeue keeps one tenant's burst (or giant batch) from
// starving another tenant's steady queries.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTokenBucketTakeN(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	b := newTokenBucket(10, 5, now)

	if ok, _ := b.takeN(5); !ok {
		t.Fatal("full bucket must admit a burst-sized batch")
	}
	if ok, retry := b.takeN(1); ok {
		t.Fatal("drained bucket must refuse")
	} else if retry <= 0 {
		t.Fatalf("retry hint = %v, want > 0", retry)
	}
	clock = clock.Add(time.Second) // refills 10, capped at burst 5
	if ok, _ := b.takeN(5); !ok {
		t.Fatal("refilled bucket must admit")
	}
	// A batch larger than the burst can never be admitted; the hint must
	// still be finite.
	clock = clock.Add(time.Hour)
	if ok, retry := b.takeN(6); ok {
		t.Fatal("batch larger than burst must refuse")
	} else if retry <= 0 || retry > time.Minute {
		t.Fatalf("oversized-batch retry hint = %v, want a small positive bound", retry)
	}
}

func TestTenantBucketsIsolate(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{RatePerSec: 1, Burst: 2}})
	s := oneDesign(t, m, d, nil)
	clock := time.Unix(2000, 0)
	s.now = func() time.Time { return clock }
	h := m.Handler()

	get := func(tenant, inst string) int {
		req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+inst, nil)
		req.Header.Set("X-Tenant-Id", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	inst := d.Instances[0].Name

	// Tenant "greedy" drains its bucket dry.
	for i := 0; i < 2; i++ {
		if code := get("greedy", inst); code != http.StatusOK {
			t.Fatalf("greedy query %d = %d, want 200", i, code)
		}
	}
	if code := get("greedy", inst); code != http.StatusTooManyRequests {
		t.Fatalf("drained greedy = %d, want 429", code)
	}
	// Tenant "steady" still has its own full bucket: isolation.
	for i := 0; i < 2; i++ {
		if code := get("steady", inst); code != http.StatusOK {
			t.Fatalf("steady query %d = %d after greedy drained: want 200 (bucket not isolated?)", i, code)
		}
	}
	// Shed accounting is per tenant.
	if got := s.tShed.With(testID, "greedy").Load(); got != 1 {
		t.Fatalf("greedy shed counter = %d, want 1", got)
	}
	if got := s.tShed.With(testID, "steady").Load(); got != 0 {
		t.Fatalf("steady shed counter = %d, want 0", got)
	}
	// A malformed tenant ID is a 400, not a metric-label injection.
	if code := get("bad/../tenant", inst); code != http.StatusBadRequest {
		t.Fatalf("bad tenant ID = %d, want 400", code)
	}
}

// grantOrder funnels the DRR grant sequence out of a saturated admission
// queue: the main goroutine holds the only slot, enqueues waiters in a known
// arrival order, then releases; each granted waiter records its tag and
// releases, cascading deterministically.
func grantOrder(t *testing.T, a *admission, tags []string, tenants []string, costs []int) []string {
	t.Helper()
	release, _, ok := a.acquire(context.Background(), "holder", 1)
	if !ok {
		t.Fatal("holder must get the free slot")
	}
	order := make(chan string, len(tags))
	var wg sync.WaitGroup
	for i := range tags {
		i := i
		before := a.queueDepth()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, ok := a.acquire(context.Background(), tenants[i], costs[i])
			if !ok {
				t.Errorf("waiter %s shed", tags[i])
				return
			}
			order <- tags[i]
			rel()
		}()
		waitFor(t, func() bool { return a.queueDepth() == before+1 })
	}
	release()
	wg.Wait()
	close(order)
	var got []string
	for tag := range order {
		got = append(got, tag)
	}
	return got
}

func TestFairDequeueAlternatesTenants(t *testing.T) {
	a := newAdmission(1, -1)
	// Arrival order: all of tenant a's burst first, then tenant b. A plain
	// FIFO would serve a1..a4 before b ever runs; DRR must alternate.
	got := grantOrder(t, a,
		[]string{"a1", "a2", "a3", "a4", "b1", "b2"},
		[]string{"a", "a", "a", "a", "b", "b"},
		[]int{1, 1, 1, 1, 1, 1})
	want := []string{"a1", "b1", "a2", "b2", "a3", "a4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grant order = %v, want %v (DRR alternation)", got, want)
	}
}

func TestBatchCostCannotMonopolize(t *testing.T) {
	a := newAdmission(1, -1)
	// A cost-5 batch arrives first; five cost-1 singles from another tenant
	// queue behind it. The batch must wait out its deficit (5 visits) while
	// the singles interleave ahead of it.
	got := grantOrder(t, a,
		[]string{"batch", "s1", "s2", "s3", "s4", "s5"},
		[]string{"bulk", "steady", "steady", "steady", "steady", "steady"},
		[]int{5, 1, 1, 1, 1, 1})
	want := []string{"s1", "s2", "s3", "s4", "batch", "s5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("grant order = %v, want %v (batch charged per instance)", got, want)
	}
}

// TestFloodCannotStarveSteadyTenant is the fair-share acceptance test at the
// HTTP layer: with one execution slot, a 30-request flood from one tenant and
// 10 steady queries from another all queued, the steady tenant's requests
// must finish interleaved (within the first ~25 completions), not after the
// entire flood as FIFO would have it.
func TestFloodCannotStarveSteadyTenant(t *testing.T) {
	d := serveDesign(t)
	m := newTestManager(t, ManagerConfig{Design: Config{MaxInFlight: 1, QueueDepth: -1}})
	block := make(chan struct{})
	var once sync.Once
	m.FaultHook = func(site, detail string) {
		if site == SiteQuery {
			once.Do(func() { <-block }) // first query holds the slot
		}
	}
	s := oneDesign(t, m, d, nil)
	h := m.Handler()
	inst := d.Instances[0].Name

	var mu sync.Mutex
	var completions []string
	var wg sync.WaitGroup
	fire := func(tenant string) {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/v1/access?inst="+inst, nil)
		req.Header.Set("X-Tenant-Id", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s query = %d, want 200", tenant, rec.Code)
		}
		mu.Lock()
		completions = append(completions, tenant)
		mu.Unlock()
	}

	// Plug the single slot, then queue the flood before the steady tenant so
	// FIFO order would maximally starve "steady".
	wg.Add(1)
	go fire("plug")
	waitFor(t, func() bool {
		return s.adm.queueDepth() == 0 && func() bool {
			s.adm.mu.Lock()
			defer s.adm.mu.Unlock()
			return s.adm.inflight == 1
		}()
	})
	const flood, steady = 30, 10
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go fire("flood")
	}
	waitFor(t, func() bool { return s.adm.queueDepth() == flood })
	for i := 0; i < steady; i++ {
		wg.Add(1)
		go fire("steady")
	}
	waitFor(t, func() bool { return s.adm.queueDepth() == flood+steady })
	close(block)
	wg.Wait()

	lastSteady := -1
	for i, tenant := range completions {
		if tenant == "steady" {
			lastSteady = i
		}
	}
	// Fair share puts the 10th steady grant around completion 20; allow
	// generous scheduling slack but reject FIFO starvation (index 40).
	if lastSteady < 0 || lastSteady > 32 {
		t.Fatalf("steady tenant's last completion at index %d of %d; flood starved it (fair share ~20)",
			lastSteady, len(completions))
	}
	if got := s.tAdmit.With(testID, "steady").Load(); got != steady {
		t.Fatalf("steady admitted = %d, want %d", got, steady)
	}
}
