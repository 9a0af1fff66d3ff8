package obs

import (
	"fmt"
	"regexp"
	"strings"
)

// Names are checked where obs creates them, against PROTOCOL.md's
// scheme, so /metrics, the run reports and merged log streams never
// fracture into spelling variants. A name off the scheme is a
// programming error: it panics the first time it is used, as a metric
// kind conflict does, so the first test that reaches it fails.

// metricRE is the metric scheme distq_<node_kind>_<snake_case>.
var metricRE = regexp.MustCompile(`^distq_(coordinator|engine|generator|appserver|network)_[a-z0-9]+(_[a-z0-9]+)*$`)

// unitSuffixes are the accepted histogram unit suffixes.
var unitSuffixes = []string{"_seconds", "_vseconds", "_bytes", "_ns"}

// checkMetric panics unless name follows the metric scheme and, for a
// counter, ends in _total or, for a histogram, in a unit suffix. A gauge
// has no suffix rule, so Help, which does not know the kind, checks as
// one.
func checkMetric(name string, kind metricKind) {
	if !metricRE.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not follow distq_<node_kind>_<snake_case> (node_kind: coordinator|engine|generator|appserver|network)", name))
	}
	switch kind {
	case kindCounter:
		if !strings.HasSuffix(name, "_total") {
			panic(fmt.Sprintf("obs: counter name %q must end in _total", name))
		}
	case kindHistogram:
		for _, s := range unitSuffixes {
			if strings.HasSuffix(name, s) {
				return
			}
		}
		panic(fmt.Sprintf("obs: histogram name %q must end in a unit suffix (%s)", name, strings.Join(unitSuffixes, ", ")))
	}
}

// checkIdentifier panics unless name is a snake_case identifier,
// [a-z][a-z0-9_]*; what says whose name it is.
func checkIdentifier(what, name string) {
	ok := name != ""
	for i := 0; ok && i < len(name); i++ {
		c := name[i]
		ok = 'a' <= c && c <= 'z' || i > 0 && ('0' <= c && c <= '9' || c == '_')
	}
	if !ok {
		panic(fmt.Sprintf("obs: %s name %q is not a snake_case identifier", what, name))
	}
}
