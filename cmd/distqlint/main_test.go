package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestProtocolAnalyzerTable fails when PROTOCOL.md's "Static analysis"
// table and the suite differ: every analyzer in all has exactly one row,
// in report order, and no row names an analyzer the suite lacks.
func TestProtocolAnalyzerTable(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Static analysis\n")
	if !ok {
		t.Fatal(`PROTOCOL.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			documented = append(documented, name)
		}
	}
	var suite []string
	for _, a := range all {
		suite = append(suite, a.Name)
	}
	if !reflect.DeepEqual(documented, suite) {
		t.Fatalf("PROTOCOL.md lists analyzers %v, the suite runs %v", documented, suite)
	}
}
