package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// conn is one client connection: an HTTP client whose transport holds at
// most one connection to the server.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// do sends one request and returns the status code and body; the body is
// valid until the next call. Transport errors return code 0.
func (c *conn) do(req *http.Request) (int, []byte) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil
	}
	return resp.StatusCode, c.buf.Bytes()
}

func (c *conn) get(url string) (int, []byte) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil
	}
	return c.do(req)
}

func (c *conn) post(url string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// window is one open-loop interval at a fixed rate. Times are seconds.
type window struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	Failed  int     `json:"failed"`
	Dropped int     `json:"dropped"` // never sent: the backlog passed maxLag
	// P50, P90 and P99 are latencies from each request's due time to its answer.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// PartP50 and PartP90 are the medians, over the window's equal
	// consecutive parts, of each part's p50 and p90. A burst of host stalls
	// that covers less than half the parts does not move them.
	PartP50 float64 `json:"part_p50"`
	PartP90 float64 `json:"part_p90"`
	// Late99 is the 99th percentile of how late the generator released a
	// request after its due time.
	Late99 float64 `json:"late99"`
	// Behind reports that the generator itself fell behind the schedule.
	Behind bool `json:"behind"`
	// Backlog reports a growing queue: the last tenth of the requests left
	// the client more than 2 ms after their due time, or some never left.
	Backlog bool `json:"backlog"`
}

// maxLag bounds how far behind schedule a request may be sent; past it the
// window stops sending and counts as overloaded.
const maxLag = 250 * time.Millisecond

// openLoop sends requests at a fixed rate for dur over the given connections
// (at most two). Request i is due at start + i/rate whether or not earlier
// requests have answered, and its latency counts from that due time, so a
// stall is charged to every request it delays. The releasing goroutine sleeps
// with nanosleep, whose wake-up error is tens of microseconds rather than the
// runtime timer's millisecond.
func openLoop(conns []*conn, rate float64, dur time.Duration, parts int, url func(i int) string,
	check func(i, code int, body []byte) bool) window {

	n := max(1, int(rate*dur.Seconds()))
	w := window{Rate: rate}
	lat := make([]float64, n)
	late := make([]float64, n)
	due := make([]time.Time, n)
	sentAt := make([]float64, n) // seconds after due when the request left
	ok := make([]bool, n)
	skipped := make([]bool, n)
	interval := time.Duration(float64(time.Second) / rate)
	work := make(chan int, n) // sized to the schedule so releasing never blocks

	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range work {
				if time.Since(due[i]) > maxLag {
					skipped[i] = true
					continue
				}
				sentAt[i] = time.Since(due[i]).Seconds()
				code, body := c.get(url(i))
				lat[i] = time.Since(due[i]).Seconds()
				ok[i] = check(i, code, body)
			}
		}(c)
	}

	runtime.LockOSThread()
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(i) * interval)
		sleepUntil(due[i])
		late[i] = time.Since(due[i]).Seconds()
		work <- i
	}
	runtime.UnlockOSThread()
	close(work)
	wg.Wait()

	var sentLat, tail []float64
	for i := 0; i < n; i++ {
		if skipped[i] {
			w.Dropped++
			continue
		}
		w.Sent++
		sentLat = append(sentLat, lat[i])
		if !ok[i] {
			w.Failed++
		}
		if i >= n-n/10 {
			tail = append(tail, sentAt[i])
		}
	}
	w.P50, w.P90, w.P99 = quantile(sentLat, 0.5), quantile(sentLat, 0.9), quantile(sentLat, 0.99)
	var p50s, p90s []float64
	for k := 0; k < parts; k++ {
		var part []float64
		for i := k * n / parts; i < (k+1)*n/parts; i++ {
			if !skipped[i] {
				part = append(part, lat[i])
			}
		}
		if len(part) > 0 {
			p50s = append(p50s, quantile(part, 0.5))
			p90s = append(p90s, quantile(part, 0.9))
		}
	}
	w.PartP50, w.PartP90 = median(p50s), median(p90s)
	w.Late99 = quantile(late, 0.99)
	w.Behind = late[n-1] > 0.02
	w.Backlog = w.Dropped > 0 || median(tail) > 0.002
	return w
}

// closedLoop sends requests back to back on each connection for dur, so the
// server never waits for work. Only Sent, Failed and Rate (the achieved rate)
// are set.
func closedLoop(conns []*conn, dur time.Duration, url func(i int) string,
	check func(i, code int, body []byte) bool) window {
	var mu sync.Mutex
	next := 0
	var w window
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				code, body := c.get(url(i))
				ok := check(i, code, body)
				mu.Lock()
				w.Sent++
				if !ok {
					w.Failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.Rate = float64(w.Sent) / dur.Seconds()
	return w
}

// sleepUntil blocks the calling thread until t. Long waits use the runtime
// timer; the last two milliseconds use nanosleep, shortened by its typical
// 50µs timer slack.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		case d > 60*time.Microsecond:
			ts := syscall.NsecToTimespec(int64(d - 50*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		default:
			return
		}
	}
}

// The generator runs in its own process, so that neither its scheduling nor
// its garbage collection shares a runtime with the server it measures. The
// parent sends a genSetup, then one genReq per window, each answered by one
// window, all as JSON values over the child's stdin and stdout.

// genSetup lists the reads in order: the URL, the instance it names, and
// the FNV-1a hash of the exact body expected while the server answers from
// its snapshot and once it answers from ECO results.
type genSetup struct {
	URLs      []string `json:"urls"`
	Names     []string `json:"names"`
	Hashes    []uint64 `json:"hashes"`
	ECOHashes []uint64 `json:"eco_hashes"`
}

// genReq asks for one window of reads starting at read Offset: open loop at
// Rate, split into Parts for PartP50 and PartP90, or closed loop.
type genReq struct {
	Rate   float64 `json:"rate"`
	MS     int     `json:"ms"`
	Parts  int     `json:"parts"`
	Conns  int     `json:"conns"`
	Offset int     `json:"offset"`
	// Closed sends back to back instead of at Rate.
	Closed bool `json:"closed"`
	// Exact compares every body with its expected hash, the ECO one when
	// ECO is set; otherwise a read only has to answer 200 for the right
	// instance.
	Exact bool `json:"exact"`
	ECO   bool `json:"eco"`
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runLoadgen is the generator process's main loop.
func runLoadgen() error {
	// The generator's own heap is small; collect it rarely so that its
	// collections do not make it late.
	debug.SetGCPercent(800)
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	var setup genSetup
	if err := dec.Decode(&setup); err != nil {
		return fmt.Errorf("read setup: %w", err)
	}
	n := len(setup.URLs)
	prefix := make([][]byte, n)
	for i, name := range setup.Names {
		prefix[i] = []byte("{\n  \"inst\": \"" + name + "\"")
	}
	conns := []*conn{newConn(), newConn()}
	for {
		var req genReq
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("read request: %w", err)
		}
		k := req.Conns
		if k < 1 || k > len(conns) {
			k = len(conns)
		}
		url := func(i int) string { return setup.URLs[(req.Offset+i)%n] }
		check := func(i, code int, body []byte) bool {
			j := (req.Offset + i) % n
			if code != http.StatusOK {
				return false
			}
			switch {
			case req.Exact && req.ECO:
				return bodyHash(body) == setup.ECOHashes[j]
			case req.Exact:
				return bodyHash(body) == setup.Hashes[j]
			}
			return bytes.HasPrefix(body, prefix[j])
		}
		dur := time.Duration(req.MS) * time.Millisecond
		var w window
		if req.Closed {
			w = closedLoop(conns[:k], dur, url, check)
		} else {
			w = openLoop(conns[:k], req.Rate, dur, max(1, req.Parts), url, check)
		}
		// Hold no connection between windows, so that with the parent's ECO
		// connection no more than two are ever open.
		for _, c := range conns {
			c.close()
		}
		if err := enc.Encode(w); err != nil {
			return err
		}
	}
}

// generator is the parent's handle on the generator process.
type generator struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
	next  int // offset of the next unread request in the read order
}

func startGenerator(setup genSetup) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-loadgen")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start generator: %w", err)
	}
	g := &generator{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}
	if err := g.enc.Encode(setup); err != nil {
		g.stop()
		return nil, fmt.Errorf("send generator setup: %w", err)
	}
	return g, nil
}

// window runs one window from the next unread request of the read order,
// and advances the read order past it.
func (g *generator) window(req genReq) (window, error) {
	var w window
	req.Offset = g.next
	if err := g.enc.Encode(req); err != nil {
		return w, fmt.Errorf("generator request: %w", err)
	}
	if err := g.dec.Decode(&w); err != nil {
		return w, fmt.Errorf("generator reply: %w", err)
	}
	g.next += w.Sent + w.Dropped
	return w, nil
}

// stop ends the generator process and waits for it.
func (g *generator) stop() error {
	g.stdin.Close()
	return g.cmd.Wait()
}
