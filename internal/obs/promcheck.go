package obs

// CheckProm is a strict parser for the Prometheus text exposition format,
// used by tests and the telemetry smoke target to prove /metrics output is
// scrapeable: well-formed names and label escaping, HELP/TYPE before samples,
// no duplicate series, cumulative histogram buckets consistent with _count.
// It is a validator, not a full client — timestamps and exemplars are out of
// scope because we never emit them.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromFamily is one parsed metric family.
type PromFamily struct {
	Help string
	Type string
}

// PromScrape is the parsed result of one exposition.
type PromScrape struct {
	Families map[string]PromFamily
	// Series maps the canonical series id — name{labels sorted by name} —
	// to its parsed value.
	Series map[string]float64
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// baseFamily strips histogram/summary sample suffixes to find the family a
// sample line belongs to, preferring a declared family when one matches.
func baseFamily(name string, fams map[string]PromFamily) string {
	if _, ok := fams[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := fams[base]; ok {
				return base
			}
		}
	}
	return name
}

// parseLabels parses `a="v",b="w"` (the text between braces) into sorted
// canonical form, validating names and escapes.
func parseLabels(s string) (string, map[string]string, error) {
	labels := map[string]string{}
	rest := s
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("label pair %q missing '='", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return "", nil, fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return "", nil, fmt.Errorf("label %s value not quoted", name)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", nil, fmt.Errorf("label %s: dangling escape", name)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, fmt.Errorf("label %s: bad escape \\%c", name, rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			if c == '\n' {
				return "", nil, fmt.Errorf("label %s: raw newline in value", name)
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", nil, fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return "", nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		rest = strings.TrimSpace(rest)
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var canon strings.Builder
	for i, n := range names {
		if i > 0 {
			canon.WriteByte(',')
		}
		fmt.Fprintf(&canon, "%s=%q", n, labels[n])
	}
	return canon.String(), labels, nil
}

// CheckProm parses and validates one exposition.
func CheckProm(r io.Reader) (*PromScrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	out := &PromScrape{Families: map[string]PromFamily{}, Series: map[string]float64{}}
	sampled := map[string]bool{} // families that already emitted samples
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d: %s (%q)", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				continue // free-form comment
			}
			name := parts[2]
			if !validMetricName(name) {
				return nil, fail("invalid metric name %q", name)
			}
			fam := out.Families[name]
			if parts[1] == "HELP" {
				if len(parts) == 4 {
					fam.Help = parts[3]
				}
			} else {
				if fam.Type != "" {
					return nil, fail("duplicate TYPE for %s", name)
				}
				if sampled[name] {
					return nil, fail("TYPE for %s after its samples", name)
				}
				typ := strings.TrimSpace(parts[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fail("unknown TYPE %q", typ)
				}
				fam.Type = typ
			}
			out.Families[name] = fam
			continue
		}

		// Sample line: name[{labels}] value
		var name, labelPart, valuePart string
		if brace := strings.IndexByte(line, '{'); brace >= 0 {
			name = line[:brace]
			end := strings.LastIndexByte(line, '}')
			if end < brace {
				return nil, fail("unterminated label set")
			}
			labelPart = line[brace+1 : end]
			valuePart = strings.TrimSpace(line[end+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fail("want 'name value'")
			}
			name, valuePart = fields[0], fields[1]
		}
		if !validMetricName(name) {
			return nil, fail("invalid metric name %q", name)
		}
		canon, _, err := parseLabels(labelPart)
		if err != nil {
			return nil, fail("%v", err)
		}
		v, err := parseValue(valuePart)
		if err != nil {
			return nil, fail("%v", err)
		}
		id := name
		if canon != "" {
			id += "{" + canon + "}"
		}
		if _, dup := out.Series[id]; dup {
			return nil, fail("duplicate series %s", id)
		}
		out.Series[id] = v
		sampled[baseFamily(name, out.Families)] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := out.checkHistograms(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistograms verifies, per histogram family and label set, that bucket
// counts are cumulative non-decreasing and that the +Inf bucket equals
// _count.
func (p *PromScrape) checkHistograms() error {
	type hist struct {
		buckets map[float64]float64 // le → cumulative count
		count   float64
		hasCnt  bool
	}
	hists := map[string]*hist{} // family + base labels → state
	get := func(key string) *hist {
		h := hists[key]
		if h == nil {
			h = &hist{buckets: map[float64]float64{}}
			hists[key] = h
		}
		return h
	}
	for id, v := range p.Series {
		name, canon := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			name, canon = id[:i], id[i+1:len(id)-1]
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && p.Families[base].Type == "histogram" {
			le, rest, err := extractLe(canon)
			if err != nil {
				return fmt.Errorf("series %s: %v", id, err)
			}
			get(base + "{" + rest + "}").buckets[le] = v
			continue
		}
		if base, ok := strings.CutSuffix(name, "_count"); ok && p.Families[base].Type == "histogram" {
			h := get(base + "{" + canon + "}")
			h.count, h.hasCnt = v, true
		}
	}
	for key, h := range hists {
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := -1.0
		for _, le := range les {
			if h.buckets[le] < prev {
				return fmt.Errorf("histogram %s: bucket le=%v not cumulative", key, le)
			}
			prev = h.buckets[le]
		}
		if inf, ok := h.buckets[infValue()]; !ok {
			return fmt.Errorf("histogram %s: missing +Inf bucket", key)
		} else if h.hasCnt && inf != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", key, inf, h.count)
		}
	}
	return nil
}

func infValue() float64 {
	v, _ := strconv.ParseFloat("+inf", 64)
	return v
}

// extractLe pulls the le label out of a canonical label string, returning
// the remaining labels in canonical form.
func extractLe(canon string) (float64, string, error) {
	_, labels, err := parseLabelsCanon(canon)
	if err != nil {
		return 0, "", err
	}
	leStr, ok := labels["le"]
	if !ok {
		return 0, "", fmt.Errorf("_bucket sample without le label")
	}
	le, err := parseValue(leStr)
	if err != nil {
		return 0, "", fmt.Errorf("bad le %q", leStr)
	}
	delete(labels, "le")
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var rest strings.Builder
	for i, n := range names {
		if i > 0 {
			rest.WriteByte(',')
		}
		fmt.Fprintf(&rest, "%s=%q", n, labels[n])
	}
	return le, rest.String(), nil
}

// parseLabelsCanon parses the canonical a="v",b="w" form produced by
// parseLabels (Go-quoted values).
func parseLabelsCanon(canon string) (string, map[string]string, error) {
	labels := map[string]string{}
	rest := canon
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("bad canonical labels %q", canon)
		}
		name := rest[:eq]
		rest = rest[eq+1:]
		val, tail, err := unquotePrefix(rest)
		if err != nil {
			return "", nil, err
		}
		labels[name] = val
		rest = strings.TrimPrefix(tail, ",")
	}
	return canon, labels, nil
}

// unquotePrefix unquotes the leading Go-quoted string of s.
func unquotePrefix(s string) (string, string, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted value in %q", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			val, err := strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value in %q", s)
}
