package obsv

import (
	"encoding/json"
	"net/http"
)

// Handler returns an expvar-style HTTP handler for long-running serving
// processes: GET yields one JSON document with the sink states, the per-op
// metrics registry, the tenant labels, the serve cells and every kernel
// counter by name. Mount it wherever the host process serves debug
// endpoints, e.g.
//
//	http.Handle("/debug/grb", grb.MetricsHandler())
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kc := readCounters()
		doc := struct {
			MetricsEnabled bool                    `json:"metrics_enabled"`
			Tracing        bool                    `json:"tracing"`
			UptimeNs       int64                   `json:"uptime_ns"`
			Ops            map[string]OpMetrics    `json:"ops"`
			Tenants        map[string]LabelMetrics `json:"tenants,omitempty"`
			Serve          map[string]int64        `json:"serve,omitempty"`
			KernelCounters map[string]int64        `json:"kernel_counters"`
			TraceBuffered  int                     `json:"trace_events_buffered"`
		}{
			MetricsEnabled: MetricsEnabled(),
			Tracing:        Tracing(),
			UptimeNs:       int64(Uptime()),
			Ops:            MetricsSnapshot(),
			Tenants:        LabelsSnapshot(),
			Serve:          ServeSnapshot(),
			KernelCounters: kc.named(true),
			TraceBuffered:  TraceBuffered(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			// Headers are already out; nothing useful to send the client.
			return
		}
	})
}
