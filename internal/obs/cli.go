package obs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Observer bundles a metric registry and a span trace for one run. A nil
// *Observer is fully usable: every accessor returns a nil component whose
// methods are no-ops.
type Observer struct {
	Name     string
	Registry *Registry
	Trace    *Trace
}

// NewObserver creates an observer with a fresh registry and a running root
// span.
func NewObserver(name string) *Observer {
	return &Observer{Name: name, Registry: NewRegistry(), Trace: NewTrace(name)}
}

// Ensure returns o, or a fresh observer when o is nil — for code that wants
// spans to measure time even when the caller did not request observability.
func Ensure(o *Observer, name string) *Observer {
	if o != nil {
		return o
	}
	return NewObserver(name)
}

// Root returns the trace's root span (nil-safe).
func (o *Observer) Root() *Span {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.Root
}

// Reg returns the registry (nil-safe).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Report is the combined JSON document: registry metrics plus the span tree.
type Report struct {
	Name string `json:"name"`
	Metrics
	Trace *SpanExport `json:"trace,omitempty"`
}

// Report snapshots the observer.
func (o *Observer) Report() Report {
	if o == nil {
		return Report{Metrics: Metrics{Counters: map[string]int64{}}}
	}
	return Report{Name: o.Name, Metrics: o.Registry.Snapshot(), Trace: o.Root().Export()}
}

// WriteJSON writes the combined report as indented JSON.
func (o *Observer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Report())
}

// WriteText renders the metrics followed by the span tree.
func (o *Observer) WriteText(w io.Writer) {
	if o == nil {
		return
	}
	fmt.Fprintf(w, "--- metrics (%s) ---\n", o.Name)
	o.Registry.Snapshot().WriteText(w)
	fmt.Fprintln(w, "--- spans ---")
	o.Root().WriteText(w)
}

// Flags is the observability command line the tools share.
type Flags struct {
	Metrics    string
	TracePath  string
	CPUProfile string
	MemProfile string
	// Listen is the -metrics-listen address ("" = no listener). Only the
	// batch tools bind it (RegisterBatchFlags).
	Listen string

	// Out receives the -metrics report; defaults to os.Stdout.
	Out io.Writer
}

// RegisterFlags registers -metrics, -trace, -cpuprofile and -memprofile on
// fs and returns the struct they populate.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "off", "emit run metrics and span tree: off, text or json")
	fs.StringVar(&f.TracePath, "trace", "", "write the span timing tree as JSON to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	return f
}

// RegisterBatchFlags is RegisterFlags plus -metrics-listen, for the batch
// tools: a long run can be scraped while it executes.
func RegisterBatchFlags(fs *flag.FlagSet) *Flags {
	f := RegisterFlags(fs)
	fs.StringVar(&f.Listen, "metrics-listen", "",
		"serve Prometheus /metrics on this address while the run executes (e.g. 127.0.0.1:9100)")
	return f
}

func (f *Flags) enabled() bool {
	return f.Metrics == "text" || f.Metrics == "json" || f.TracePath != "" || f.Listen != ""
}

// Run is one tool run's observability handle. Start opens it, Listen starts
// the -metrics-listen listener once the run's labels are known, and End,
// deferred right after Start, closes it on every return path.
type Run struct {
	// Obs is the observer to instrument with: nil when no metrics, trace or
	// listener were requested, which turns every hook into a no-op.
	Obs *Observer

	f       *Flags
	cpuFile *os.File
	srv     *http.Server
	addr    string
}

// Start validates the flags, begins CPU profiling if requested and returns
// the run's handle.
func (f *Flags) Start(name string) (*Run, error) {
	switch f.Metrics {
	case "", "off", "text", "json":
	default:
		return nil, fmt.Errorf("obs: unknown -metrics mode %q (want off, text or json)", f.Metrics)
	}
	r := &Run{f: f}
	if f.CPUProfile != "" {
		var err error
		if r.cpuFile, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(r.cpuFile); err != nil {
			r.cpuFile.Close()
			return nil, err
		}
	}
	if f.enabled() {
		r.Obs = NewObserver(name)
	}
	return r, nil
}

// Listen starts the -metrics-listen listener, when one was requested. It
// serves GET /metrics: the run's registry as it stands at the scrape, with
// labels on every series. Call it once the labels are known, for example
// after the design is parsed.
func (r *Run) Listen(labels ...Label) error {
	if r == nil || r.f.Listen == "" {
		return nil
	}
	ln, err := net.Listen("tcp", r.f.Listen)
	if err != nil {
		return fmt.Errorf("obs: -metrics-listen %s: %w", r.f.Listen, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = WriteProm(w, r.Obs.Reg().Gather(labels...))
	})
	r.srv, r.addr = &http.Server{Handler: mux}, ln.Addr().String()
	go func() { _ = r.srv.Serve(ln) }()
	return nil
}

// Addr returns the listener's address ("" when there is none).
func (r *Run) Addr() string {
	if r == nil {
		return ""
	}
	return r.addr
}

// End ends the root span, writes the -metrics report and the -trace file,
// stops the CPU profile, writes the heap profile and closes the listener.
// Deferred right after Start, it runs on every return path; its error is
// joined into *errp.
func (r *Run) End(errp *error) {
	if err := r.end(); err != nil {
		*errp = errors.Join(*errp, err)
	}
}

func (r *Run) end() error {
	var errs []error
	if o := r.Obs; o != nil {
		o.Root().End()
		out := r.f.Out
		if out == nil {
			out = os.Stdout
		}
		switch r.f.Metrics {
		case "text":
			o.WriteText(out)
		case "json":
			errs = append(errs, o.WriteJSON(out))
		}
		if r.f.TracePath != "" {
			errs = append(errs, writeFile(r.f.TracePath, o.Root().WriteJSON))
		}
	}
	if r.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, r.cpuFile.Close())
	}
	if r.f.MemProfile != "" {
		runtime.GC()
		errs = append(errs, writeFile(r.f.MemProfile, pprof.WriteHeapProfile))
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		errs = append(errs, r.srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
