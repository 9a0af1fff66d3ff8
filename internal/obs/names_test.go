package obs

import (
	"fmt"
	"strings"
	"testing"
)

// TestNameScheme holds the check where obs creates a name to the naming
// scheme: every call form that creates a name, with names that must pass
// and names that must panic with the rule they break. A name built from
// the transport's per-kind prefix is checked whole.
func TestNameScheme(t *testing.T) {
	const transport = "distq_engine_transport_"
	create := map[string]func(name string){
		"counter":   func(n string) { NewRegistry().Counter(n, L("worker", "0")) },
		"gauge":     func(n string) { NewRegistry().Gauge(n) },
		"histogram": func(n string) { NewRegistry().Histogram(n, nil, L("type", "Data")) },
		"help":      func(n string) { NewRegistry().Help(n, "some help") },
		"span":      func(n string) { NewTracer(0).Start(n, "e1", 0) },
		"child":     func(n string) { NewTracer(0).StartChild(n, "m1", 0, TraceContext{}) },
		"step":      func(n string) { NewTracer(0).Start(SpanRelocation, "e1", 0).Step(n, 0) },
		"event":     func(n string) { NewLogger(LoggerConfig{}).Info(n, F("from", "m1")) },
		"debug":     func(n string) { NewLogger(LoggerConfig{}).Debug(n) },
	}
	for _, c := range []struct{ kind, name, panics string }{
		{"counter", "distq_engine_results_total", ""},
		{"counter", "distq_engine_sent_total", ""},
		{"counter", "distq_engine_cleanup_groups_total", ""},
		{"counter", "distq_engine_cleanup_results_total", ""},
		{"counter", "distq_engine_shard_tuples_total", ""},
		{"counter", "distq_engine_shard_quiesces_total", ""},
		{"counter", transport + "credit_granted_total", ""},
		{"counter", transport + "credit_blocked_total", ""},
		{"counter", transport + "send_bytes_total", ""},
		{"counter", transport + "recv_bytes_total", ""},
		{"gauge", "distq_engine_mem_bytes", ""},
		{"gauge", "distq_engine_standby_bytes", ""},
		{"gauge", "distq_engine_standby_segment_bytes", ""},
		{"gauge", "distq_engine_cleanup_workers", ""},
		{"gauge", "distq_engine_shard_workers", ""},
		{"histogram", "distq_engine_cleanup_seconds", ""},
		{"histogram", "distq_engine_cleanup_group_seconds", ""},
		{"histogram", transport + "send_seconds", ""},
		{"help", "distq_engine_mem_bytes", ""},
		{"help", "distq_engine_standby_segment_bytes", ""},
		{"help", transport + "credit_granted_total", ""},
		{"span", "relocation", ""},
		{"span", "cleanup_worker", ""},
		{"span", "join_shard", ""},
		{"child", "relocation_marker", ""},
		{"step", "pause_marker", ""},
		{"step", "drained", ""},
		{"step", "acked", ""},
		{"step", "quiesced", ""},
		{"event", "relocation_started", ""},
		{"event", "relocation_aborted", ""},
		{"event", "handler_error", ""},
		{"debug", "tuple_processed", ""},

		{"counter", "distq_engine_results", `counter name "distq_engine_results" must end in _total`},
		{"counter", "distq_engine_cleanup_groups", `counter name "distq_engine_cleanup_groups" must end in _total`},
		{"counter", "distq_engine_shard_tuples", `counter name "distq_engine_shard_tuples" must end in _total`},
		{"counter", transport + "credit_granted", `counter name "distq_engine_transport_credit_granted" must end in _total`},
		{"counter", transport + "credit_blocked", `counter name "distq_engine_transport_credit_blocked" must end in _total`},
		{"counter", "distq_Engine_results_total", `metric name "distq_Engine_results_total" does not follow`},
		{"counter", "distq_engine_Sent-Total", `metric name "distq_engine_Sent-Total" does not follow`},
		{"counter", transport + "Credit-Blocked_total", `metric name "distq_engine_transport_Credit-Blocked_total" does not follow`},
		{"counter", "distq_transport_credit_granted_total", `metric name "distq_transport_credit_granted_total" does not follow`},
		{"gauge", "mem_bytes", `metric name "mem_bytes" does not follow`},
		{"gauge", "distq_engine_shardWorkers", `metric name "distq_engine_shardWorkers" does not follow`},
		{"gauge", transport + "creditWindow", `metric name "distq_engine_transport_creditWindow" does not follow`},
		{"help", "distq_engine_memBytes", `metric name "distq_engine_memBytes" does not follow`},
		{"histogram", "distq_engine_cleanup", `histogram name "distq_engine_cleanup" must end in a unit suffix`},
		{"histogram", "distq_engine_cleanup_group", `histogram name "distq_engine_cleanup_group" must end in a unit suffix`},
		{"histogram", transport + "credit_wait", `histogram name "distq_engine_transport_credit_wait" must end in a unit suffix`},
		{"span", "Cleanup Worker", `span/step name "Cleanup Worker" is not a snake_case identifier`},
		{"span", "Join Shard", `span/step name "Join Shard" is not a snake_case identifier`},
		{"child", "Relocation Marker", `span/step name "Relocation Marker" is not a snake_case identifier`},
		{"step", "Install Phase", `span/step name "Install Phase" is not a snake_case identifier`},
		{"event", "Relocation Started", `log event name "Relocation Started" is not a snake_case identifier`},
		{"event", "handler-error", `log event name "handler-error" is not a snake_case identifier`},
		{"debug", "", `log event name "" is not a snake_case identifier`},
	} {
		t.Run(c.kind+"/"+c.name, func(t *testing.T) {
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				create[c.kind](c.name)
			}()
			switch {
			case c.panics == "" && got != "":
				t.Fatalf("panicked on a name on the scheme: %s", got)
			case c.panics != "" && !strings.Contains(got, c.panics):
				t.Fatalf("panic = %q, want one containing %q", got, c.panics)
			}
		})
	}
}
