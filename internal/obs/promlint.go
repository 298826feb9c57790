package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// LintExposition validates Prometheus text-format (0.0.4) output the
// way a strict scraper would: line grammar, metric-name charset, HELP
// and TYPE preceding their family's samples, cumulative bucket
// monotonicity, and `_bucket`/`_sum`/`_count` consistency (the +Inf
// bucket must equal `_count`). It returns the first violation found.
// Only tests call it: the exposition tests here and both serving tiers'
// /metrics tests (TestMetricsEndpoint, TestFrameConformance), which a
// test file here could not reach.
func LintExposition(data []byte) error {
	var (
		nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)
		leRe     = regexp.MustCompile(`^\{le="([^"]+)"\}$`)
	)
	typed := map[string]string{} // family → TYPE
	helped := map[string]bool{}  // family → HELP seen
	type histState struct {
		lastCum  float64
		infCum   float64
		hasInf   bool
		count    float64
		hasCount bool
		hasSum   bool
	}
	hists := map[string]*histState{}
	sampled := map[string]bool{}

	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && typed[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for ln, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				return fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Split(rest, " ")
			if len(parts) != 2 || !nameRe.MatchString(parts[0]) {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown TYPE %q", ln+1, parts[1])
			}
			if sampled[parts[0]] {
				return fmt.Errorf("line %d: TYPE for %s after its samples", ln+1, parts[0])
			}
			typed[parts[0]] = parts[1]
			if parts[1] == "histogram" {
				hists[parts[0]] = &histState{}
			}
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("line %d: unknown comment form: %q", ln+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				return fmt.Errorf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, valStr := m[1], m[2], m[3]
			fam := family(name)
			sampled[fam] = true
			if typed[fam] == "" {
				return fmt.Errorf("line %d: sample %s without TYPE", ln+1, name)
			}
			if !helped[fam] {
				return fmt.Errorf("line %d: sample %s without HELP", ln+1, name)
			}
			val, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
			h := hists[fam]
			switch {
			case h != nil && strings.HasSuffix(name, "_bucket"):
				lm := leRe.FindStringSubmatch(labels)
				if lm == nil {
					return fmt.Errorf("line %d: histogram bucket without le label: %q", ln+1, line)
				}
				if lm[1] == "+Inf" {
					h.hasInf = true
					h.infCum = val
				} else {
					if _, err := strconv.ParseFloat(lm[1], 64); err != nil {
						return fmt.Errorf("line %d: bad le bound %q", ln+1, lm[1])
					}
					if h.hasInf {
						return fmt.Errorf("line %d: finite bucket after +Inf in %s", ln+1, fam)
					}
					if val < h.lastCum {
						return fmt.Errorf("line %d: %s buckets not cumulative: %g < %g", ln+1, fam, val, h.lastCum)
					}
					h.lastCum = val
				}
			case h != nil && strings.HasSuffix(name, "_sum"):
				h.hasSum = true
			case h != nil && strings.HasSuffix(name, "_count"):
				h.hasCount = true
				h.count = val
			case h != nil:
				return fmt.Errorf("line %d: histogram %s has non-histogram sample %s", ln+1, fam, name)
			default:
				if labels != "" {
					return fmt.Errorf("line %d: unexpected labels on %s", ln+1, name)
				}
			}
		}
	}
	for fam, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", fam)
		}
		if !h.hasSum || !h.hasCount {
			return fmt.Errorf("histogram %s missing _sum or _count", fam)
		}
		if h.infCum < h.lastCum {
			return fmt.Errorf("histogram %s +Inf bucket %g below last finite bucket %g", fam, h.infCum, h.lastCum)
		}
		if h.infCum != h.count {
			return fmt.Errorf("histogram %s +Inf bucket %g != _count %g", fam, h.infCum, h.count)
		}
	}
	return nil
}
