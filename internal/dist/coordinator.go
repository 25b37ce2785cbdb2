package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/db"
	"repro/internal/drc"
	"repro/internal/obs"
	"repro/internal/pao"
)

// Defaults for the zero-value tuning knobs.
const (
	defaultShardClasses    = 8
	defaultShardClusters   = 16
	defaultRequestTimeout  = 60 * time.Second
	defaultHedgeAfter      = 2 * time.Second
	defaultHeartbeatEvery  = 500 * time.Millisecond
	defaultHeartbeatMisses = 3
	// hedgeP99Factor scales the observed p99 shard latency into the hedge
	// delay once hedgeMinSamples latencies are recorded; before that the
	// static HedgeAfter floor applies alone.
	hedgeP99Factor  = 1.5
	hedgeMinSamples = 8
)

// WorkerStatus is one entry of the coordinator's fleet view.
type WorkerStatus struct {
	URL          string
	Up           bool
	Mismatch     bool // design/config identity check failed; never dispatched to
	Misses       int  // consecutive failed heartbeats
	LastSeen     time.Time
	ShardsOK     int
	ShardsFailed int
}

// workerState is the mutable health record behind one WorkerStatus.
type workerState struct {
	url string

	mu           sync.Mutex
	up           bool
	mismatch     bool
	misses       int
	lastSeen     time.Time
	shardsOK     int
	shardsFailed int
}

func (s *workerState) status() WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WorkerStatus{
		URL: s.url, Up: s.up, Mismatch: s.mismatch, Misses: s.misses,
		LastSeen: s.lastSeen, ShardsOK: s.shardsOK, ShardsFailed: s.shardsFailed,
	}
}

func (s *workerState) isUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up && !s.mismatch
}

func (s *workerState) isMismatch() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mismatch
}

func (s *workerState) noteResult(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.shardsOK++
		s.up = true
		s.misses = 0
		s.lastSeen = time.Now()
	} else {
		s.shardsFailed++
	}
}

// Coordinator farms the analysis out to Workers and reassembles the Result.
// Configure the exported fields before Run; zero values select the defaults
// above. A Coordinator runs once — build a fresh one per analysis.
type Coordinator struct {
	Design  *db.Design
	Cfg     pao.Config
	Workers []string // worker base URLs ("host:port" gets "http://" prefixed)

	// Obs receives the dist.* telemetry (shard counters, worker-up gauge,
	// shard latency histogram) when set.
	Obs *obs.Observer
	// NetHook, when set, intercepts every payload crossing the wire at the
	// Site* network fault points (test-only: faultinject.NetHook).
	NetHook func(site, detail string, payload []byte) ([]byte, error)

	// ShardClasses / ShardClusters bound shard sizes: smaller shards mean
	// finer-grained re-dispatch after a worker loss at the cost of more
	// round-trips.
	ShardClasses  int
	ShardClusters int
	// Retry is the per-candidate attempt policy (cliutil jittered backoff).
	// The zero value means 3 attempts, 50ms base, 500ms cap, 0.5 jitter.
	Retry cliutil.RetryPolicy
	// RequestTimeout bounds each individual shard request attempt.
	RequestTimeout time.Duration
	// HedgeAfter is the floor for the hedging delay: a shard still pending
	// after max(HedgeAfter, 1.5 x observed p99 shard latency) is concurrently
	// dispatched to the next candidate, and the first success wins.
	HedgeAfter time.Duration
	// MaxRelocations bounds how many additional candidate workers a shard may
	// be re-dispatched to after its home worker fails (0 means every other
	// worker may be tried). The coordinator itself is the final fallback.
	MaxRelocations int
	// HeartbeatEvery / HeartbeatMisses tune worker-health probing: a worker
	// missing HeartbeatMisses consecutive probes is marked down and skipped
	// by dispatch until a probe succeeds again.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// Parallelism bounds concurrent shard dispatches; 0 means 2 per worker.
	Parallelism int

	client *http.Client
	states []*workerState
	ring   *ring
	reg    *obs.Registry

	// localMu serializes every use of the local fallback analyzer (its lazy
	// net map is not goroutine-safe).
	localMu  sync.Mutex
	local    *pao.Analyzer
	localEng *drc.Engine

	latMu sync.Mutex
	lats  []time.Duration

	shardsDone atomic.Int64

	designHash string
	configFP   string
}

// ShardsDone reports how many shards have completed (successfully, via any
// path) so far — chaos tests poll it to time a mid-run worker kill.
func (c *Coordinator) ShardsDone() int64 { return c.shardsDone.Load() }

// Fleet returns the current per-worker health view.
func (c *Coordinator) Fleet() []WorkerStatus {
	out := make([]WorkerStatus, len(c.states))
	for i, s := range c.states {
		out[i] = s.status()
	}
	return out
}

func (c *Coordinator) init() {
	if c.ShardClasses <= 0 {
		c.ShardClasses = defaultShardClasses
	}
	if c.ShardClusters <= 0 {
		c.ShardClusters = defaultShardClusters
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = defaultRequestTimeout
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = defaultHedgeAfter
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = defaultHeartbeatEvery
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = defaultHeartbeatMisses
	}
	if c.MaxRelocations <= 0 {
		c.MaxRelocations = len(c.Workers)
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2 * len(c.Workers)
		if c.Parallelism < 1 {
			c.Parallelism = 1
		}
	}
	if c.Retry.Attempts == 0 {
		c.Retry = cliutil.RetryPolicy{
			Attempts: 3, BaseDelay: 50 * time.Millisecond,
			MaxDelay: 500 * time.Millisecond, Jitter: 0.5,
		}
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.reg = c.Obs.Reg()
	c.states = make([]*workerState, len(c.Workers))
	for i, u := range c.Workers {
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		c.states[i] = &workerState{url: strings.TrimRight(u, "/")}
	}
	c.ring = newRing(len(c.Workers))
	c.designHash = pao.DesignHash(c.Design)
	c.configFP = pao.ConfigFingerprint(c.Cfg)
}

// localAnalyzer returns the coordinator's own analyzer for fallback compute
// and the final failed-pin recount. Callers hold localMu.
func (c *Coordinator) localAnalyzer() *pao.Analyzer {
	if c.local == nil {
		c.local = pao.NewAnalyzer(c.Design, c.Cfg)
	}
	return c.local
}

// Run executes the distributed analysis. The returned Result is byte-identical
// (as a snapshot) to a single-process RunContext over the same design and
// config; worker loss, slow shards and corrupt responses degrade throughput,
// not the answer. With no workers configured the analysis simply runs locally.
func (c *Coordinator) Run(ctx context.Context) (*pao.Result, error) {
	c.init()
	if len(c.Workers) == 0 {
		c.localMu.Lock()
		defer c.localMu.Unlock()
		return c.localAnalyzer().RunContext(ctx)
	}
	for i := range c.states {
		c.probe(ctx, i)
	}
	c.publishFleet()
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go c.heartbeatLoop(hbCtx)

	// Phase 1: Steps 1-2 sharded by class signature.
	shards := c.analyzeShards()
	parts := make([]*pao.Result, len(shards))
	c.eachShard(ctx, shards, func(i int, sh *shard) {
		v, err := c.dispatchShard(ctx, sh)
		if err != nil {
			return // cancelled; runErr below reports it
		}
		parts[i] = v.(*pao.Result)
	})
	merged := pao.MergeResults(c.Design, parts...)
	pao.SeedDefaultSelections(c.Design, merged)
	if err := ctx.Err(); err != nil {
		merged.Health.MarkCancelled()
		return merged, err
	}

	// Phase 2: Step 3 sharded by cluster key.
	sshards := c.selectShards(merged)
	picks := make([]*selectResponse, len(sshards))
	c.eachShard(ctx, sshards, func(i int, sh *shard) {
		v, err := c.dispatchShard(ctx, sh)
		if err != nil {
			return
		}
		picks[i] = v.(*selectResponse)
	})
	for _, resp := range picks {
		if resp == nil {
			continue
		}
		for _, sel := range resp.Selected {
			merged.Selected[sel[0]] = sel[1]
		}
		for _, sig := range resp.Degraded {
			merged.Health.Degrade(sig)
		}
		for _, e := range resp.Errors {
			merged.Health.Record(fromWireError(e))
		}
	}
	if err := ctx.Err(); err != nil {
		merged.Health.MarkCancelled()
		return merged, err
	}

	// Failed-pin accounting needs every selected via placed together, so it
	// stays coordinator-local on a fresh engine.
	c.localMu.Lock()
	fin := c.localAnalyzer()
	fin.CountFailedPins(merged, fin.GlobalEngine())
	c.localMu.Unlock()
	c.publishFleet()
	if err := ctx.Err(); err != nil {
		merged.Health.MarkCancelled()
		return merged, err
	}
	return merged, nil
}

// shard is one unit of dispatch.
type shard struct {
	phase string // "analyze" | "select"
	id    string
	sigs  []string // analyze: class signatures
	keys  []string // select: cluster keys
	body  []byte   // pre-sealed request frame
	cands []int    // candidate workers, home first
}

// analyzeShards partitions the class signatures: consistent-hash each onto
// its home worker, then chunk each worker's share (kept in design order) into
// ShardClasses-sized shards.
func (c *Coordinator) analyzeShards() []*shard {
	perOwner := make([][]string, len(c.Workers))
	for _, ui := range c.Design.UniqueInstances() {
		sig := ui.Signature()
		w := c.ring.owner(sig)
		perOwner[w] = append(perOwner[w], sig)
	}
	var shards []*shard
	for _, sigs := range perOwner {
		for len(sigs) > 0 {
			n := c.ShardClasses
			if n > len(sigs) {
				n = len(sigs)
			}
			chunk := sigs[:n]
			sigs = sigs[n:]
			body, _ := json.Marshal(analyzeRequest{Sigs: chunk})
			shards = append(shards, &shard{
				phase: "analyze",
				id:    fmt.Sprintf("analyze:%d", len(shards)),
				sigs:  chunk,
				body:  sealFrame(body),
				cands: c.ring.candidates(chunk[0], 1+c.MaxRelocations),
			})
		}
	}
	return shards
}

// selectShards partitions the cluster keys the same way and slices the merged
// classes each shard's clusters need into its request payload.
func (c *Coordinator) selectShards(merged *pao.Result) []*shard {
	clusters := c.Design.Clusters()
	byKey := make(map[string]db.Cluster, len(clusters))
	perOwner := make([][]string, len(c.Workers))
	for _, cl := range clusters {
		k := pao.ClusterKey(cl)
		byKey[k] = cl
		w := c.ring.owner(k)
		perOwner[w] = append(perOwner[w], k)
	}
	var shards []*shard
	for _, keys := range perOwner {
		for len(keys) > 0 {
			n := c.ShardClusters
			if n > len(keys) {
				n = len(keys)
			}
			chunk := keys[:n]
			keys = keys[n:]
			// The DP must see the access patterns of every member instance of
			// every cluster in the shard, wherever its class was analyzed.
			need := make(map[string]bool)
			for _, k := range chunk {
				for _, inst := range byKey[k].Insts {
					if ua := merged.UAFor(inst); ua != nil {
						need[ua.UI.Signature()] = true
					}
				}
			}
			sigs := make([]string, 0, len(need))
			for s := range need {
				sigs = append(sigs, s)
			}
			sort.Strings(sigs)
			var classes bytes.Buffer
			if err := pao.EncodeSnapshot(&classes, c.Design, c.Cfg,
				pao.SliceResult(merged, sigs)); err != nil {
				// Encoding a result we just merged cannot fail short of OOM;
				// skip the shard body and let local fallback handle it.
				continue
			}
			body, _ := json.Marshal(selectRequest{Keys: chunk, Classes: classes.Bytes()})
			shards = append(shards, &shard{
				phase: "select",
				id:    fmt.Sprintf("select:%d", len(shards)),
				keys:  chunk,
				body:  sealFrame(body),
				cands: c.ring.candidates(chunk[0], 1+c.MaxRelocations),
			})
		}
	}
	return shards
}

// eachShard runs fn over the shards with bounded parallelism, stopping new
// dispatches once ctx is cancelled.
func (c *Coordinator) eachShard(ctx context.Context, shards []*shard, fn func(i int, sh *shard)) {
	sem := make(chan struct{}, c.Parallelism)
	var wg sync.WaitGroup
	for i, sh := range shards {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
}

// orderedCandidates returns the shard's candidate workers with known-down
// workers moved to the back (relative order preserved): a heartbeat-detected
// death costs nothing, only an undetected one pays a request timeout.
func (c *Coordinator) orderedCandidates(sh *shard) []int {
	up := make([]int, 0, len(sh.cands))
	var down []int
	for _, w := range sh.cands {
		if c.states[w].isMismatch() {
			continue
		}
		if c.states[w].isUp() {
			up = append(up, w)
		} else {
			down = append(down, w)
		}
	}
	return append(up, down...)
}

// dispatchShard drives one shard to completion: home worker first with
// retries, hedged to the next candidate when slow, relocated on failure, and
// computed locally when every candidate is gone. Only a cancelled context
// makes it return an error.
func (c *Coordinator) dispatchShard(ctx context.Context, sh *shard) (any, error) {
	t0 := time.Now()
	c.reg.Counter("dist.shards.dispatched").Add(1)
	cands := c.orderedCandidates(sh)

	type outcome struct {
		val any
		err error
		w   int
	}
	results := make(chan outcome, len(cands))
	launched := 0
	launch := func() {
		w := cands[launched]
		launched++
		go func() {
			v, err := c.tryWorker(ctx, w, sh)
			results <- outcome{v, err, w}
		}()
	}
	done := func(v any) (any, error) {
		c.shardsDone.Add(1)
		c.observeLatency(time.Since(t0))
		return v, nil
	}
	if len(cands) > 0 {
		launch()
	}
	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	pending := launched
	for pending > 0 {
		select {
		case out := <-results:
			c.states[out.w].noteResult(out.err == nil)
			if out.err == nil {
				return done(out.val)
			}
			pending--
			if launched < len(cands) && ctx.Err() == nil {
				c.reg.Counter("dist.shards.relocated").Add(1)
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(cands) && ctx.Err() == nil {
				c.reg.Counter("dist.shards.hedged").Add(1)
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Every candidate failed (or none existed): graceful degradation — the
	// coordinator computes the shard itself. Whatever still fails inside the
	// pipeline lands in Result.Health quarantine, not here.
	c.reg.Counter("dist.shards.local").Add(1)
	v, err := c.localShard(ctx, sh)
	if err != nil {
		return nil, err
	}
	return done(v)
}

// tryWorker sends the shard to one worker under the retry policy, validating
// and decoding the response. All failures are retriable: transient transport
// errors heal, and persistent ones exhaust the policy and move the shard to
// the next candidate.
func (c *Coordinator) tryWorker(ctx context.Context, w int, sh *shard) (any, error) {
	path := pathAnalyze
	if sh.phase == "select" {
		path = pathSelect
	}
	url := c.states[w].url + path
	detail := sh.phase + "/" + sh.id + "/" + c.states[w].url
	var val any
	attempt := 0
	err := cliutil.Retry(ctx, c.Retry, func() error {
		attempt++
		if attempt > 1 {
			c.reg.Counter("dist.shards.retried").Add(1)
		}
		v, err := c.sendOnce(ctx, url, detail, sh)
		if err != nil {
			return err
		}
		val = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return val, nil
}

// sendOnce performs one request attempt: seal (already done), fault-hook,
// POST under the per-attempt deadline, fault-hook the response, open the
// frame, decode per phase.
func (c *Coordinator) sendOnce(ctx context.Context, url, detail string, sh *shard) (any, error) {
	body := sh.body
	if hook := c.NetHook; hook != nil {
		var err error
		if body, err = hook(SiteDispatch, detail, body); err != nil {
			return nil, err
		}
	}
	actx, cancel := context.WithTimeout(ctx, c.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: worker answered %d: %.200s", resp.StatusCode, raw)
	}
	if hook := c.NetHook; hook != nil {
		if raw, err = hook(SiteResponse, detail, raw); err != nil {
			return nil, err
		}
	}
	payload, err := openFrame(raw)
	if err != nil {
		c.reg.Counter("dist.response.corrupt").Add(1)
		return nil, err
	}
	switch sh.phase {
	case "analyze":
		// Decoding revalidates the snapshot checksum plus the design-hash and
		// config fingerprints — a worker computing against different inputs
		// is caught here, not at merge time.
		part, err := pao.DecodeSnapshot(bytes.NewReader(payload), c.Design, c.Cfg)
		if err != nil {
			c.reg.Counter("dist.response.corrupt").Add(1)
			return nil, err
		}
		return part, nil
	default:
		var sel selectResponse
		if err := json.Unmarshal(payload, &sel); err != nil {
			c.reg.Counter("dist.response.corrupt").Add(1)
			return nil, err
		}
		return &sel, nil
	}
}

// localShard computes a shard on the coordinator itself — the last-resort
// path when no worker can. Serialized: the fallback analyzer is shared.
func (c *Coordinator) localShard(ctx context.Context, sh *shard) (any, error) {
	c.localMu.Lock()
	defer c.localMu.Unlock()
	a := c.localAnalyzer()
	if sh.phase == "analyze" {
		return a.AnalyzeClasses(ctx, sh.sigs)
	}
	if c.localEng == nil {
		c.localEng = a.GlobalEngine()
	}
	// Decode the shard's own payload rather than holding a reference to the
	// merged result: local fallback then follows exactly the worker code path.
	var sr selectRequest
	payload, err := openFrame(sh.body)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(payload, &sr); err != nil {
		return nil, err
	}
	classes, err := pao.DecodeSnapshot(bytes.NewReader(sr.Classes), c.Design, c.Cfg)
	if err != nil {
		return nil, err
	}
	picks, health, err := a.SelectClusters(ctx, classes, c.localEng, sh.keys)
	if err != nil {
		return nil, err
	}
	resp := &selectResponse{
		Degraded: health.DegradedClasses(),
		Errors:   toWireErrors(health.Errors()),
	}
	for id, idx := range picks {
		resp.Selected = append(resp.Selected, [2]int{id, idx})
	}
	sort.Slice(resp.Selected, func(a, b int) bool { return resp.Selected[a][0] < resp.Selected[b][0] })
	return resp, nil
}

// observeLatency records a completed shard's wall time for the p99-derived
// hedge delay and the latency histogram.
func (c *Coordinator) observeLatency(d time.Duration) {
	c.reg.Counter("dist.shards.ok").Add(1)
	c.reg.Histogram("dist.shard.latency").Observe(d)
	c.latMu.Lock()
	c.lats = append(c.lats, d)
	c.latMu.Unlock()
}

// hedgeDelay returns the current hedging delay: the static floor until enough
// shard latencies are observed, then max(floor, 1.5 x p99).
func (c *Coordinator) hedgeDelay() time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if len(c.lats) < hedgeMinSamples {
		return c.HedgeAfter
	}
	sorted := append([]time.Duration(nil), c.lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p99 := sorted[len(sorted)*99/100]
	if d := time.Duration(hedgeP99Factor * float64(p99)); d > c.HedgeAfter {
		return d
	}
	return c.HedgeAfter
}

// probe performs one identity-checking health probe of worker i.
func (c *Coordinator) probe(ctx context.Context, i int) {
	st := c.states[i]
	pctx, cancel := context.WithTimeout(ctx, c.RequestTimeout)
	defer cancel()
	ok, mismatch := false, false
	if raw, err := c.pingOnce(pctx, st.url); err == nil {
		var pr pingResponse
		if jerr := json.Unmarshal(raw, &pr); jerr == nil {
			if pr.DesignHash == c.designHash && pr.Config == c.configFP {
				ok = true
			} else {
				mismatch = true
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if mismatch {
		st.mismatch = true
		st.up = false
		return
	}
	if ok {
		st.up = true
		st.misses = 0
		st.lastSeen = time.Now()
		return
	}
	st.misses++
	if st.misses >= c.HeartbeatMisses {
		st.up = false
	}
}

// pingOnce fetches the worker's identity document, passing the response
// through the heartbeat fault site.
func (c *Coordinator) pingOnce(ctx context.Context, base string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+pathPing, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: ping answered %d", resp.StatusCode)
	}
	if hook := c.NetHook; hook != nil {
		if raw, err = hook(SiteHeartbeat, base, raw); err != nil {
			return nil, err
		}
	}
	return raw, nil
}

// heartbeatLoop probes every worker on a timer until ctx ends, keeping the
// fleet view current so dispatch can skip known-dead workers immediately.
func (c *Coordinator) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(c.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for i := range c.states {
				if c.states[i].isMismatch() {
					continue
				}
				c.probe(ctx, i)
			}
			c.publishFleet()
		}
	}
}

// publishFleet updates the worker-up gauge from the current states.
func (c *Coordinator) publishFleet() {
	up := 0
	for _, s := range c.states {
		if s.isUp() {
			up++
		}
	}
	c.reg.Gauge("dist.workers.up").Set(float64(up))
}
