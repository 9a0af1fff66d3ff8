// Package engine reproduces the pre-linter wall-clock leak this
// analyzer exists to catch: the real engine's spill worker throttled
// with a 250ms real sleep inside a virtual-time experiment
// (engine.go:207 before the fix).
package engine

import "time"

// spillThrottle mirrors the old forced-spill pacing loop.
func spillThrottle(overflow func() bool) {
	for overflow() {
		time.Sleep(250 * time.Millisecond) // want `wall clock: time\.Sleep outside the vclock allowlist`
	}
}

// Durations, conversions and constants stay free: only clock reads and
// waits are wall-clock surface.
var statsInterval = 5 * time.Second

func stamp(ns int64) time.Time { return time.Unix(0, ns) }

type fakeClock struct{}

func (fakeClock) Sleep(d time.Duration) {}

// shadowed calls Sleep on a local named time: not the time package.
func shadowed() {
	time := fakeClock{}
	time.Sleep(time2())
}

func time2() time.Duration { return 0 }

type clock interface{ Now() time.Time }

// cleanupWorker mirrors any goroutine an engine package starts beside
// its handler: a loop there stamps its spans through the engine's
// injected clock, and the discipline follows the code into the goroutine
// — a wall-clock read inside it is as much a leak as one on the handler.
func cleanupWorker(c clock, work chan int) {
	go func() {
		for range work {
			_ = c.Now()         // conforming: the injected clock is the doorway
			_ = time.Now()      // want `wall clock: time\.Now outside the vclock allowlist`
			time.Sleep(time2()) // want `wall clock: time\.Sleep outside the vclock allowlist`
		}
	}()
}
