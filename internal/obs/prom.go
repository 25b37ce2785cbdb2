package obs

// Prometheus text exposition (format version 0.0.4), rendered by hand: one
// # HELP and # TYPE line per family, then one sample line per series, with
// label values backslash-escaped. Histograms expose the fixed log2 buckets as
// cumulative le= series in seconds plus _sum and _count.
//
// One naming rule maps a dotted registry name onto its Prometheus name: dots
// (and any other character outside the name charset) become underscores,
// counters gain _total and histograms gain _seconds. So pao.queries renders
// as pao_queries_total and pao.query as pao_query_seconds.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type header value for /metrics responses.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one constant name/value pair attached to every series of a
// Gather (for example design="c17").
type Label struct {
	Name  string
	Value string
}

// promName applies the naming rule to a dotted registry name.
func promName(name string, typ MetricType) string {
	switch typ {
	case TypeCounter:
		return sanitizeName(name) + "_total"
	case TypeHistogram:
		return sanitizeName(name) + "_seconds"
	}
	return sanitizeName(name)
}

// sanitizeName maps a dotted name ("drc.check.metal") onto the Prometheus
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double-quote and newline per the text
// format rules.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes backslash and newline (quotes are legal in HELP text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} from parallel name/value slices plus an
// optional extra pair (used for le=). Returns "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(sanitizeName(n))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders the families as a Prometheus text exposition under the
// naming rule. Families that render to the same name are merged (first
// help and type win) and duplicate series within a family are dropped, so
// the output never contains a duplicate sample — the invariant scrapers
// enforce.
func WriteProm(w io.Writer, fams []FamilySnapshot) error {
	merged := make(map[string]*FamilySnapshot)
	var order []string
	for i := range fams {
		f := &fams[i]
		name := promName(f.Name, f.Type)
		if m, ok := merged[name]; ok {
			if m.Type == f.Type {
				m.Series = append(m.Series, f.Series...)
			}
			continue
		}
		cp := *f
		if cp.Help == "" {
			cp.Help = string(f.Type) + " " + f.Name
		}
		cp.Name = name
		cp.Series = append([]SeriesSnapshot(nil), f.Series...)
		merged[name] = &cp
		order = append(order, name)
	}
	sort.Strings(order)

	for _, name := range order {
		if err := writeFamily(w, merged[name]); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, f *FamilySnapshot) error {
	name := f.Name
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		name, escapeHelp(f.Help), name, f.Type); err != nil {
		return err
	}
	seen := make(map[string]bool, len(f.Series))
	for _, s := range f.Series {
		labels := labelString(f.Labels, s.LabelValues, "", "")
		if seen[labels] {
			continue
		}
		seen[labels] = true
		switch f.Type {
		case TypeHistogram:
			if err := writeHistogram(w, name, f.Labels, s); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one series' fixed log2 buckets as cumulative le=
// samples in seconds, then _sum and _count. The exported buckets carry each
// bucket's upper bound in microseconds; boundaries are shared across all
// histograms (BucketBound) so scrapers can aggregate across processes.
func writeHistogram(w io.Writer, name string, labels []string, s SeriesSnapshot) error {
	var cum int64
	for _, b := range s.Hist.Buckets {
		cum += b.Count
		le := formatValue(float64(b.LeUS) / 1e6)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(labels, s.LabelValues, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(labels, s.LabelValues, "le", "+Inf"), cum); err != nil {
		return err
	}
	plain := labelString(labels, s.LabelValues, "", "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, plain, formatValue(s.Hist.SumMS/1e3)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, plain, s.Hist.Count)
	return err
}
