package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/pao"
	"repro/internal/serve"
)

const (
	// registerReps is how many timed registrations a run makes.
	registerReps = 5
	// p50LimitS is the access_capacity_rps latency limit.
	p50LimitS = 0.001
)

// server is the in-process serving stack under test and its client.
type server struct {
	m      *serve.Manager
	base   string
	d      *db.Design
	names  []string
	paths  []string // GET /v1/access URL of each instance, by design index
	expect []uint64 // body hashes expected while serving the snapshot
	ecoExp []uint64 // body hashes expected once ECO results are served
	c      *conn    // registration and ECO posts
	gen    *generator
	id     string
}

// newManager builds the server with paoserve's flag defaults and the given
// snapshot directory.
func newManager(dir string) *serve.Manager {
	return serve.NewManager(analysisConfig(), serve.ManagerConfig{
		Addr: "127.0.0.1:0",
		Design: serve.Config{
			QueueDepth:       64,
			RequestTimeout:   5 * time.Second,
			Burst:            1,
			BreakerThreshold: 3,
			BreakerCooldown:  30 * time.Second,
			DrainTimeout:     10 * time.Second,
			SlowLogSize:      128,
			SlowThreshold:    100 * time.Millisecond,
		},
		SnapshotDir:    dir,
		WarmWait:       2 * time.Second,
		MaxUploadBytes: 32 << 20,
		DrainTimeout:   10 * time.Second,
	})
}

// runServe registers the analyzed design from its snapshot and drives the
// serving phases.
func (r *run) runServe(st *batchState) error {
	var snap bytes.Buffer
	if err := pao.EncodeSnapshot(&snap, st.d, analysisConfig(), st.res); err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	st.snapshot = snap.Bytes()
	s := &server{c: newConn()}
	var err error
	if s.expect, err = expectedAnswers(st.d, st.ref, "snapshot"); err != nil {
		return err
	}
	if s.ecoExp, err = expectedAnswers(st.d, st.ref, "eco"); err != nil {
		return err
	}
	for _, inst := range st.d.Instances {
		s.names = append(s.names, inst.Name)
	}
	if r.trace {
		r.snapshotLayer(st)
	}
	parseCPU := st.parseCPU
	// Only the server's state and the expected answers stay live from here.
	st.d, st.ref, st.res, st.a = nil, nil, nil, nil

	dir, err := os.MkdirTemp(filepath.Join(r.out, "tmp"), "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s.m = newManager(dir)
	if err := s.m.Start(); err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.m.Shutdown(ctx); err != nil {
			r.problem("server shutdown: %v", err)
		}
		s.c.close()
	}()
	s.base = "http://" + s.m.Addr()

	regS, regCPU, resident, err := r.register(s, st.in, st.snapshot)
	if err != nil {
		return err
	}
	order := r.rng.Perm(len(s.names))
	setup := genSetup{}
	for _, i := range order {
		setup.URLs = append(setup.URLs, s.paths[i])
		setup.Names = append(setup.Names, s.names[i])
		setup.Hashes = append(setup.Hashes, s.expect[i])
		setup.ECOHashes = append(setup.ECOHashes, s.ecoExp[i])
	}
	// The generator's reads use at most two connections; drop the idle one.
	s.c.close()
	if s.gen, err = startGenerator(setup); err != nil {
		return err
	}
	defer func() {
		if err := s.gen.stop(); err != nil {
			r.problem("generator: %v", err)
		}
	}()
	if r.trace {
		r.set("serve.register.s", "s", median(regS), len(regS))
		err = r.serveLayers(s, order)
	} else {
		r.set("setup_s", "s", parseCPU+median(regCPU), len(regCPU))
		r.set("resident_mb", "MB", resident, 1)
		err = r.servePhases(s, order)
	}
	if err != nil {
		return err
	}
	r.sweep(s, s.ecoExp, "after ECO")
	return nil
}

// snapshotLayer times the snapshot codec directly.
func (r *run) snapshotLayer(st *batchState) {
	var enc, dec []float64
	for i := 0; i < registerReps; i++ {
		var buf bytes.Buffer
		runtime.GC()
		id := r.tr.do(0, "pao.snapshot.encode", func() {
			if err := pao.EncodeSnapshot(&buf, st.d, analysisConfig(), st.res); err != nil {
				r.op(false, "encode snapshot: %v", err)
			}
		})
		enc = append(enc, r.tr.dur(id))
		runtime.GC()
		var res *pao.Result
		var err error
		id = r.tr.do(0, "pao.snapshot.decode", func() {
			res, err = pao.DecodeSnapshot(bytes.NewReader(st.snapshot), st.d, analysisConfig())
		})
		dec = append(dec, r.tr.dur(id))
		r.checkResult(st, res, err, "snapshot round trip")
	}
	r.set("pao.snapshot.encode.s", "s", median(enc), len(enc))
	r.set("pao.snapshot.decode.s", "s", median(dec), len(dec))
	r.set("pao.snapshot.bytes", "bytes", float64(len(st.snapshot)), 1)
}

// register parses the server's own copy of the design, then times snapshot
// bytes -> registered, persisted and first 200, after one untimed warm-up
// registration. All but the last registration are deleted again; resident is
// the live heap that the server's design and its last registration add.
func (r *run) register(s *server, in inputs, snap []byte) (wall, cpu []float64, resident float64, err error) {
	base := heapMB()
	if s.d, err = parse(in); err != nil {
		return nil, nil, 0, err
	}
	for i := 0; i <= registerReps; i++ {
		id := fmt.Sprintf("d%d", i)
		sp := r.tr.start(0, "serve.register")
		t0, c0 := time.Now(), processCPU()
		srv, err := s.m.RegisterDesign(context.Background(), id, s.d, analysisConfig(), &serve.RegisterOptions{Snapshot: snap})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("register: %w", err)
		}
		code, _ := s.c.get(s.base + "/v1/access?design=" + id + "&inst=" + url.QueryEscape(s.names[0]))
		dt, dc := time.Since(t0), processCPU()-c0
		r.tr.end(sp)
		r.op(code == http.StatusOK, "first answer after registration: HTTP %d", code)
		r.op(srv.Source() == "snapshot", "registration served %q, not the snapshot", srv.Source())
		if i > 0 {
			wall = append(wall, seconds(dt))
			cpu = append(cpu, dc.Seconds())
		}
		if i < registerReps {
			if err := s.m.DeleteDesign(id); err != nil {
				return nil, nil, 0, fmt.Errorf("delete design: %w", err)
			}
		}
		s.id = id
	}
	for _, n := range s.names {
		s.paths = append(s.paths, s.base+"/v1/access?design="+s.id+"&inst="+url.QueryEscape(n))
	}
	return wall, cpu, heapMB() - base, nil
}

// sweep asks the server for every instance in-process and compares each
// body with its expected bytes. It returns the total response bytes.
func (r *run) sweep(s *server, want []uint64, when string) int64 {
	h := s.m.Handler()
	var total int64
	bad := 0
	for i := range s.names {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.paths[i], nil))
		total += int64(rec.Body.Len())
		if rec.Code != http.StatusOK || bodyHash(rec.Body.Bytes()) != want[i] {
			bad++
			r.failed++
		}
		r.attempted++
	}
	if bad > 0 {
		r.problem("%s: %d of %d answers differ from the reference", when, bad, len(s.names))
	}
	return total
}

// fixedWindow runs reads at a fixed rate over both connections, cut into
// half-second parts (PartP50 and PartP90 are medians over them). A window
// whose generator fell behind the schedule is retried up to twice; if it is
// still behind, it counts in loadgen.invalid_windows.
func (r *run) fixedWindow(s *server, rate float64, dur time.Duration) (window, error) {
	var w window
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var err error
		req := genReq{Rate: rate, MS: int(dur / time.Millisecond), Parts: max(1, int(dur/(500*time.Millisecond))), Conns: 2, Exact: true}
		if w, err = s.gen.window(req); err != nil {
			return w, err
		}
		r.countWindow(w)
		if !w.Behind {
			break
		}
		if attempt == 2 {
			r.invalidWindows++
		}
	}
	return w, nil
}

// closedWindow sends reads back to back over both connections for dur and
// returns the server's CPU time per read: the run's own process serves, and
// does nothing else while it waits for the generator. With eco set, every
// body must equal the answer served once ECO results are live.
func (r *run) closedWindow(s *server, dur time.Duration, eco bool) (window, float64, error) {
	runtime.GC()
	c0 := processCPU()
	w, err := s.gen.window(genReq{Closed: true, MS: int(dur / time.Millisecond), Conns: 2, Exact: true, ECO: eco})
	if err != nil {
		return w, 0, err
	}
	cpu := processCPU() - c0
	r.countWindow(w)
	return w, 1e6 * cpu.Seconds() / float64(max(1, w.Sent)), nil
}

// servePhases is the untraced serving run. After one untimed ECO shuttle,
// it alternates a one-second window of reads sent back to back with one ECO
// shuttle (two timed moves, no reads beside them), so both metrics sample
// the whole serving time. Every instance is home when reads run.
func (r *run) servePhases(s *server, order []int) error {
	deadline := time.Now().Add(time.Duration(float64(r.budget) * (1 - r.w.batchShare)))
	// Warm the connections and the handler path before measuring.
	if _, _, err := r.closedWindow(s, 300*time.Millisecond, false); err != nil {
		return err
	}
	targets := ecoTargets(s, order, 64)
	r.ecoWarmup(s, targets[0])
	var readCPU, ecoCPU []float64
	sent := 0
	for k := 1; k < len(targets) && (k <= 3 || time.Now().Before(deadline)); k++ {
		w, cpu, err := r.closedWindow(s, time.Second, true)
		if err != nil {
			return err
		}
		readCPU = append(readCPU, cpu)
		sent += w.Sent
		for _, dx := range []int64{70, 0} {
			runtime.GC()
			code, _, cpu := s.move(targets[k], dx)
			r.op(code == http.StatusOK, "ECO move: HTTP %d", code)
			ecoCPU = append(ecoCPU, cpu)
		}
	}
	r.set("access_cpu_us", "us", median(readCPU), sent)
	r.set("eco_cpu_s", "s", median(ecoCPU), len(ecoCPU))
	return nil
}

// target is an ECO target instance at its home position.
type target struct {
	name string
	x, y int64
}

// ecoTargets picks n seeded ECO targets, the last instances of the read
// order. The server owns the design once serving starts, so their home
// positions are taken before any move.
func ecoTargets(s *server, order []int, n int) []target {
	n = min(n, len(order))
	out := make([]target, n)
	for k := range out {
		inst := s.d.Instances[order[len(order)-1-k]]
		out[k] = target{inst.Name, inst.Pos.X, inst.Pos.Y}
	}
	return out
}

// move posts a single-instance move of t to dx from home and returns the
// status, the wall time to the answer and the process CPU time it took.
func (s *server) move(t target, dx int64) (int, float64, float64) {
	t0, c0 := time.Now(), processCPU()
	code, _ := s.c.post(s.base+"/v1/eco?design="+s.id, ecoBody(t.name, t.x+dx, t.y))
	return code, seconds(time.Since(t0)), (processCPU() - c0).Seconds()
}

// ecoWarmup shuttles t out and home untimed: the server builds its ECO
// session (a global engine) on the first move.
func (r *run) ecoWarmup(s *server, t target) {
	for _, dx := range []int64{70, 0} {
		code, _, _ := s.move(t, dx)
		r.op(code == http.StatusOK, "ECO warm-up move: HTTP %d", code)
	}
}

// loadRows is the traced run's load test: latency at 2,000 and 6,000 req/s,
// the capacity step-up, and reads beside ECO moves. On a small VM these
// swing with host stalls from run to run, so they are per-layer rows.
func (r *run) loadRows(s *server, order []int, handlerUS float64) error {
	serveBudget := time.Duration(float64(r.budget) * (1 - r.w.batchShare))
	if _, err := r.fixedWindow(s, 1000, 300*time.Millisecond); err != nil {
		return err
	}
	w, err := r.fixedWindow(s, 2000, serveBudget*25/100)
	if err != nil {
		return err
	}
	r.set("access_p50_ms.r2k", "ms", 1e3*w.PartP50, w.Sent)
	r.set("access_p90_ms.r2k", "ms", 1e3*w.PartP90, w.Sent)
	r.set("access_p99_ms.r2k", "ms", 1e3*w.P99, w.Sent)
	r.set("client.overhead_us", "us", 1e6*w.PartP50-handlerUS, w.Sent)
	r.set("loadgen.late_p99_us", "us", 1e6*w.Late99, w.Sent)
	if w, err = r.fixedWindow(s, 6000, serveBudget*15/100); err != nil {
		return err
	}
	r.set("access_p90_ms.r6k", "ms", 1e3*w.PartP90, w.Sent)
	r.set("access_p99_ms.r6k", "ms", 1e3*w.P99, w.Sent)
	capRPS, err := r.capacity(s)
	if err != nil {
		return err
	}
	r.set("access_capacity_rps", "req/s", capRPS, 1)
	r.ecoWarmup(s, ecoTargets(s, order, 1)[0])
	ecoS, w, err := r.ecoPhase(s, serveBudget*35/100, order)
	if err != nil {
		return err
	}
	r.set("eco_commit_s", "s", median(ecoS), len(ecoS))
	r.set("access_p90_ms.eco", "ms", 1e3*w.PartP90, w.Sent)
	r.set("access_p99_ms.eco", "ms", 1e3*w.P99, w.Sent)
	if w.Behind {
		r.invalidWindows++
	}
	r.set("loadgen.invalid_windows", "count", float64(r.invalidWindows), 1)
	return nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countWindow adds a window's reads to the operation counts.
func (r *run) countWindow(w window) {
	r.attempted += w.Sent
	r.failed += w.Failed
	if w.Failed > 0 {
		r.problem("%d of %d reads at %.0f req/s failed or differ from the reference", w.Failed, w.Sent, w.Rate)
	}
}

// capacity steps the rate up by half from 1,000 req/s until a step's median
// latency passes p50LimitS or its backlog grows, then bisects three times
// between the last pass and the first miss. It returns the highest passing
// rate.
func (r *run) capacity(s *server) (float64, error) {
	const step = 400 * time.Millisecond
	try := func(rate float64) (bool, error) {
		runtime.GC()
		w, err := s.gen.window(genReq{Rate: rate, MS: int(step / time.Millisecond), Parts: 1, Conns: 2, Exact: true})
		r.countWindow(w)
		return !w.Backlog && !w.Behind && w.Failed == 0 && w.P50 <= p50LimitS, err
	}
	pass, fail := 0.0, 0.0
	for rate := 1000.0; rate < 200000; rate *= 1.5 {
		ok, err := try(rate)
		if err != nil {
			return 0, err
		}
		if !ok {
			fail = rate
			break
		}
		pass = rate
	}
	if pass == 0 || fail == 0 {
		return pass, nil
	}
	for i := 0; i < 3; i++ {
		mid := (pass + fail) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, nil
}

// ecoBody is a single-move POST /v1/eco body.
func ecoBody(name string, to int64, y int64) []byte {
	b, _ := json.Marshal(serve.ECORequest{Ops: []serve.ECOOpRequest{{Op: "move", Inst: name, X: &to, Y: &y}}})
	return b
}

// ecoPhase is phase (b): 2,000 req/s of reads on one connection while the
// other posts signature-changing moves, one every ecoEvery, each chosen
// instance shuttled out and home again. The ECO session must already be
// built. Reads must answer 200 for the right instance; exact answers are
// checked by the sweep that follows. The window is cut into one part per
// ECO leg, and it counts as behind when a post left late.
func (r *run) ecoPhase(s *server, dur time.Duration, order []int) ([]float64, window, error) {
	pairs := max(2, int(dur/(2*ecoEvery)))
	dur = time.Duration(2*pairs) * ecoEvery
	targets := ecoTargets(s, order, pairs)
	var ecoS []float64
	var codes []int
	late := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for k := 0; k < 2*pairs; k++ {
			slot := start.Add(time.Duration(k) * ecoEvery)
			sleepUntil(slot)
			if time.Since(slot) > ecoLate {
				late++
			}
			dx := int64(70)
			if k%2 == 1 {
				dx = 0
			}
			code, dt, _ := s.move(targets[k/2], dx)
			ecoS = append(ecoS, dt)
			codes = append(codes, code)
		}
	}()
	w, err := s.gen.window(genReq{Rate: 2000, MS: int(dur / time.Millisecond), Parts: 2 * pairs, Conns: 1})
	<-done
	if err != nil {
		return nil, w, err
	}
	for _, code := range codes {
		r.op(code == http.StatusOK, "ECO move: HTTP %d", code)
	}
	r.countWindow(w)
	if late > 0 {
		w.Behind = true
	}
	return ecoS, w, nil
}

// serveLayers is the traced serving run: in-process handler times for the
// access and ECO endpoints, the response bytes, and the load test.
func (r *run) serveLayers(s *server, order []int) error {
	for rep := 0; rep < 2; rep++ {
		total := r.sweep(s, s.expect, "snapshot sweep")
		r.record("serve.access", map[string]int64{"serve.access.bytes_total": total})
	}
	total := r.ledger["serve.access"][0]["serve.access.bytes_total"]
	r.set("serve.access.bytes", "bytes", float64(total)/float64(len(s.names)), len(s.names))

	h := s.m.Handler()
	var handler []float64
	runtime.GC()
	for k := 0; k < 4000; k++ {
		i := order[k%len(order)]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, s.paths[i], nil)
		id := r.tr.do(0, "serve.access", func() { h.ServeHTTP(rec, req) })
		handler = append(handler, r.tr.dur(id))
		r.op(rec.Code == http.StatusOK && bodyHash(rec.Body.Bytes()) == s.expect[i], "in-process access answer differs")
	}
	handlerUS := 1e6 * median(handler)
	r.set("serve.access.handler_us", "us", handlerUS, len(handler))
	// The load test reads exact snapshot answers, so it runs before the
	// in-process ECO legs; its own ECO phase leaves every instance home.
	if err := r.loadRows(s, order, handlerUS); err != nil {
		return err
	}

	inst := s.d.Instances[order[0]]
	home := inst.Pos
	var ecoS []float64
	for rep := 0; rep < 2; rep++ {
		for _, leg := range []struct {
			name string
			dx   int64
		}{{"serve.eco.out", 70}, {"serve.eco.home", 0}} {
			runtime.GC()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, s.base+"/v1/eco?design="+s.id,
				bytes.NewReader(ecoBody(inst.Name, home.X+leg.dx, home.Y)))
			id := r.tr.do(0, "serve.eco", func() { h.ServeHTTP(rec, req) })
			ecoS = append(ecoS, r.tr.dur(id))
			var resp serve.ECOResponse
			ok := rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil && resp.Report != nil
			r.op(ok, "in-process ECO: HTTP %d", rec.Code)
			if ok {
				r.record(leg.name, map[string]int64{
					"dirty_classes":  int64(resp.Report.ReanalyzedClasses),
					"dirty_clusters": int64(resp.Report.DirtyClusters),
				})
			}
		}
	}
	r.set("serve.eco.handler_s", "s", median(ecoS), len(ecoS))
	return nil
}
