// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package that starts goroutines calls it from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

// settle bounds how long stopped goroutines get to return.
const settle = 5 * time.Second

// Main runs the tests, then waits up to settle for the goroutine count
// to fall back to what it was before them. If it does not, Main prints
// every goroutine's stack and exits 1.
func Main(m *testing.M) {
	before := running()
	code := m.Run()
	start := vclock.WallNow()
	for code == 0 && running() > before {
		if vclock.WallSince(start) > settle {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlive the tests (%d before them)\n\n%s\n", running(), before, stacks())
			code = 1
			break
		}
		vclock.WallSleep(10 * time.Millisecond)
	}
	os.Exit(code)
}

// running counts the goroutines, leaving out the one os/signal starts
// for the fuzzing engine's interrupt handler: it lives as long as the
// process.
func running() int {
	n := 0
	for _, g := range strings.Split(stacks(), "\n\n") {
		if !strings.Contains(g, "os/signal.") {
			n++
		}
	}
	return n
}

// stacks renders every goroutine's stack.
func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}
