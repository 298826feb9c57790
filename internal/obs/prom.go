package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4) over the avr.* expvar
// namespace, with no client-library dependency. Every *expvar.Int
// becomes a counter (or gauge, for the occupancy variables below) and
// every expvar.Func whose value is a Summary becomes a full histogram
// family — cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count` — so `histogram_quantile` works against a scrape. The obs
// histogram semantics map onto Prometheus's directly: bucket bounds are
// inclusive upper bounds, exactly `le`.

// promGauges lists the avr.* integers that are occupancy levels rather
// than monotone totals, so the exposition can type them honestly.
var promGauges = map[string]bool{
	"avr.server_in_flight":     true,
	"avr.cache_resident_bytes": true,
	"avr.cache_lines":          true,
}

// promName maps an expvar key to a legal Prometheus metric name:
// "avr.server_latency" → "avr_server_latency". The expvar keys are
// already [a-z0-9_.]-only, so the dot swap is the whole job.
func promName(key string) string {
	return strings.ReplaceAll(key, ".", "_")
}

// WriteMetrics writes the exposition for every avr.* expvar to w.
// Output order follows expvar.Do's sorted key order, so scrapes are
// deterministic and diffable.
func WriteMetrics(w io.Writer) error {
	var err error
	expvar.Do(func(kv expvar.KeyValue) {
		if err != nil || !strings.HasPrefix(kv.Key, "avr.") {
			return
		}
		name := promName(kv.Key)
		switch v := kv.Value.(type) {
		case *expvar.Int:
			typ := "counter"
			if promGauges[kv.Key] {
				typ = "gauge"
			}
			_, err = fmt.Fprintf(w, "# HELP %s expvar %s\n# TYPE %s %s\n%s %d\n",
				name, kv.Key, name, typ, name, v.Value())
		case expvar.Func:
			if s, ok := v.Value().(Summary); ok {
				err = writeHistogram(w, name, kv.Key, s)
			}
		}
	})
	return err
}

// writeHistogram renders one Summary as a Prometheus histogram family.
func writeHistogram(w io.Writer, name, key string, s Summary) error {
	unit := s.Unit
	if unit == "" {
		unit = "value"
	}
	if _, err := fmt.Fprintf(w, "# HELP %s expvar %s (%s)\n# TYPE %s histogram\n",
		name, key, unit, name); err != nil {
		return err
	}
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
			name, strconv.FormatFloat(b.Le, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	// The +Inf bucket absorbs the overflow count: cum+Overflow == Count.
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count); err != nil {
		return err
	}
	return nil
}

// MetricsHandler returns the GET /metrics handler. It is registered on
// both the serving mux (internal/server) and the -debug-addr default
// mux (ServeDebug), so a fleet scraper needs no extra port.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w)
	})
}
