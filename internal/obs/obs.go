// Package obs is the repository's dependency-free observability layer: one
// registry of race-safe counters, gauges and duration histograms, flat or
// labeled, rendered to Prometheus text by one writer under one naming rule
// (prom.go); hierarchical spans that assemble a run into a timing tree
// (span.go); and the CLI flags, profiles and run lifecycle shared by the
// command-line tools (cli.go).
//
// Every method tolerates a nil receiver, so instrumented code needs no
// enabled-checks: a nil Observer (or nil Registry/Span/Counter) turns every
// hook into a cheap no-op. Hot paths that would pay for a time.Now() even on
// the no-op path should still gate on the observer being non-nil.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable level (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 duration buckets. Bucket i counts
// observations with a microsecond value whose bit length is i (so bucket 0 is
// sub-microsecond, bucket i covers [2^(i-1), 2^i) microseconds); the last
// bucket is a catch-all for anything longer (~36 minutes and up).
const histBuckets = 32

// BucketBound returns bucket i's upper bound in microseconds. Every histogram
// shares these fixed boundaries, which lets a Prometheus scraper aggregate
// histograms across processes.
func BucketBound(i int) int64 { return int64(1) << i }

// Histogram is a race-safe log2 duration histogram with sum, count and max
// over the fixed BucketBound boundaries.
type Histogram struct {
	count  atomic.Int64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
	bucket [histBuckets]atomic.Int64
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.bucket[bucketOf(d)].Add(1)
}

// Sum returns the accumulated duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// BucketCount is one non-empty histogram bucket in an export.
type BucketCount struct {
	LeUS  int64 `json:"le_us"` // upper bound of the bucket, microseconds
	Count int64 `json:"count"`
}

// HistStat is the exported summary of a histogram.
type HistStat struct {
	Count   int64         `json:"count"`
	SumMS   float64       `json:"sum_ms"`
	AvgMS   float64       `json:"avg_ms"`
	MaxMS   float64       `json:"max_ms"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot exports the histogram's current state. Count is derived from the
// bucket counts so the export is internally consistent (the cumulative +Inf
// bucket of a Prometheus exposition must equal the count) even when writers
// race the read.
func (h *Histogram) Snapshot() HistStat {
	if h == nil {
		return HistStat{}
	}
	s := HistStat{
		SumMS: float64(h.sumNS.Load()) / 1e6,
		MaxMS: float64(h.maxNS.Load()) / 1e6,
	}
	for i := range h.bucket {
		if n := h.bucket[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{LeUS: BucketBound(i), Count: n})
			s.Count += n
		}
	}
	if s.Count > 0 {
		s.AvgMS = s.SumMS / float64(s.Count)
	}
	return s
}

// MetricType tags a metric family for exposition.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// labelEnd terminates each label value in a series key. 0xff never appears in
// valid UTF-8, so the key is unambiguous.
const labelEnd = '\xff'

// family is one named metric family: a type, a help string, a fixed label
// schema, and a series per distinct label-value tuple. A zero-label family is
// a flat metric: its one series is created with the family, and it has no
// series map.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	flat   *series // the series of a zero-label family, nil otherwise

	mu     sync.RWMutex
	series map[string]*series // labeled families only
}

type series struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

func newSeries(typ MetricType, values []string) *series {
	s := &series{values: values}
	switch typ {
	case TypeCounter:
		s.ctr = &Counter{}
	case TypeGauge:
		s.gauge = &Gauge{}
	case TypeHistogram:
		s.hist = &Histogram{}
	}
	return s
}

// get returns the series for the given label values, creating it on first
// use. The lookup of an existing series does not allocate. Arity mismatches
// are programming errors and panic.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	if f.flat != nil {
		return f.flat
	}
	var buf [128]byte
	key := buf[:0]
	for _, v := range values {
		key = append(key, v...)
		key = append(key, labelEnd)
	}
	f.mu.RLock()
	s := f.series[string(key)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[string(key)]; s == nil {
		s = newSeries(f.typ, append([]string(nil), values...))
		f.series[string(key)] = s
	}
	return s
}

// sorted returns the family's series in label-value order.
func (f *family) sorted() []*series {
	if f.flat != nil {
		return []*series{f.flat}
	}
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.RUnlock()
	return out
}

// Registry is a race-safe collection of metric families under dotted names.
// The flat lookups (Counter, Gauge, Histogram) get-or-create a zero-label
// family, so instrumentation sites need no registration boilerplate; the Vec
// constructors register labeled families. A name has one type and one label
// schema: registering it again differently panics.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ MetricType, labels []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, labels: append([]string(nil), labels...)}
			if len(labels) == 0 {
				f.flat = newSeries(typ, nil)
			} else {
				f.series = make(map[string]*series)
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q registered as %s%v, was %s%v",
			name, typ, labels, f.typ, f.labels))
	}
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, "", TypeCounter, nil).flat.ctr
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, "", TypeGauge, nil).flat.gauge
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, "", TypeHistogram, nil).flat.hist
}

// CounterVec is a counter family; With resolves one labeled series.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family; With resolves one labeled series.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family; With resolves one labeled series.
type HistogramVec struct{ f *family }

// CounterVec registers (or fetches) a counter family with the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.family(name, help, TypeCounter, labels)}
}

// GaugeVec registers (or fetches) a gauge family with the given labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.family(name, help, TypeGauge, labels)}
}

// HistogramVec registers (or fetches) a histogram family with the given
// labels.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r.family(name, help, TypeHistogram, labels)}
}

// With resolves the series for the given label values (nil-safe: a nil vec
// returns a nil counter, which no-ops).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).ctr
}

// With resolves the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values).gauge
}

// With resolves the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).hist
}

// sorted returns the registered families in name order.
func (r *Registry) sorted() []*family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// SeriesSnapshot is one gathered series.
type SeriesSnapshot struct {
	LabelValues []string
	Value       float64  // counter or gauge value
	Hist        HistStat // histogram state
}

// FamilySnapshot is one gathered family, series sorted by label values. Name
// is the dotted registry name; WriteProm renders the Prometheus name.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   MetricType
	Labels []string
	Series []SeriesSnapshot
}

// Gather snapshots every family, sorted by name, for exposition. The
// constant labels lead every series' labels, for example the design a
// server's registry belongs to.
func (r *Registry) Gather(constLabels ...Label) []FamilySnapshot {
	var names, values []string
	for _, l := range constLabels {
		names = append(names, l.Name)
		values = append(values, l.Value)
	}
	var out []FamilySnapshot
	for _, f := range r.sorted() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ,
			Labels: append(names[:len(names):len(names)], f.labels...)}
		for _, s := range f.sorted() {
			ss := SeriesSnapshot{LabelValues: append(values[:len(values):len(values)], s.values...)}
			switch f.typ {
			case TypeCounter:
				ss.Value = float64(s.ctr.Load())
			case TypeGauge:
				ss.Value = s.gauge.Load()
			case TypeHistogram:
				ss.Hist = s.hist.Snapshot()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// Metrics is a point-in-time export of a registry. A labeled series is keyed
// name{k="v"}.
type Metrics struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

// Snapshot exports every metric in the registry.
func (r *Registry) Snapshot() Metrics {
	m := Metrics{Counters: map[string]int64{}}
	for _, f := range r.sorted() {
		for _, s := range f.sorted() {
			key := f.name + labelString(f.labels, s.values, "", "")
			switch f.typ {
			case TypeCounter:
				m.Counters[key] = s.ctr.Load()
			case TypeGauge:
				if m.Gauges == nil {
					m.Gauges = map[string]float64{}
				}
				m.Gauges[key] = s.gauge.Load()
			case TypeHistogram:
				if m.Histograms == nil {
					m.Histograms = map[string]HistStat{}
				}
				m.Histograms[key] = s.hist.Snapshot()
			}
		}
	}
	return m
}

// WriteText renders the metrics sorted by name.
func (m Metrics) WriteText(w io.Writer) {
	for _, name := range sortedKeys(m.Counters) {
		fmt.Fprintf(w, "%-40s %d\n", name, m.Counters[name])
	}
	for _, name := range sortedKeys(m.Gauges) {
		fmt.Fprintf(w, "%-40s %.3f\n", name, m.Gauges[name])
	}
	for _, name := range sortedKeys(m.Histograms) {
		h := m.Histograms[name]
		fmt.Fprintf(w, "%-40s n=%d sum=%.2fms avg=%.3fms max=%.3fms\n",
			name, h.Count, h.SumMS, h.AvgMS, h.MaxMS)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
