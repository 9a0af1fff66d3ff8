// Package vclock provides virtual time for the query processing system.
//
// The paper's experiments run for tens of virtual minutes with
// millisecond-scale inter-arrival times and multi-second adaptation timers.
// To reproduce those experiments quickly, every component reads time through
// a Clock. A ScaledClock compresses wall time by a constant factor so that
// all paper durations can be kept verbatim (30 ms input rate, 45 s minimal
// relocation gap, 40 min runs) while the experiment completes in seconds.
// A ManualClock provides fully deterministic time for unit tests.
package vclock

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Time is an instant of virtual time, expressed as a duration since the
// start of the experiment (virtual epoch).
type Time time.Duration

// Sub returns the virtual duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Add returns the virtual instant t+d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Minutes reports t in fractional virtual minutes.
func (t Time) Minutes() float64 { return time.Duration(t).Minutes() }

// Seconds reports t in fractional virtual seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the instant as a duration since the virtual epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Clock supplies virtual time. All durations passed to a Clock are virtual
// durations; implementations translate them to wall time as appropriate.
//
// AfterFunc is the one timer: a node that waits on time asks for a
// callback that sends a message to its own endpoint, and a periodic
// timer is re-armed by the handler of each tick (see Next). No timer is
// ever stopped: a callback whose moment has passed finds its message
// stale or its receiver gone.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
	// Sleep blocks for virtual duration d.
	Sleep(d time.Duration)
	// AfterFunc calls f once, after virtual duration d; d <= 0 calls it
	// at once. Scaled runs f on a goroutine of its own, Manual on the one
	// calling Advance (or AfterFunc, for d <= 0), so f must not block.
	AfterFunc(d time.Duration, f func())
}

// Next returns the deadline of the periodic timer after the one due at
// due: one period later, skipped forward past now when the handler fell
// behind, so the rate stays 1/period and missed ticks are dropped, as
// time.Ticker drops them.
func Next(due Time, period time.Duration, now Time) Time {
	next := due.Add(period)
	if next <= now {
		next = next.Add((now.Sub(next)/period + 1) * period)
	}
	return next
}

// Scaled is a Clock whose virtual time advances Factor times faster than
// wall time. Factor 1 is real time.
type Scaled struct {
	factor float64
	start  time.Time
}

// NewScaled returns a Clock compressing wall time by factor (virtual =
// wall * factor). It panics if factor is not positive.
func NewScaled(factor float64) *Scaled {
	if factor <= 0 {
		panic(fmt.Sprintf("vclock: non-positive scale factor %v", factor))
	}
	return &Scaled{factor: factor, start: time.Now()}
}

// Now implements Clock.
func (c *Scaled) Now() Time {
	return Time(float64(time.Since(c.start)) * c.factor)
}

// wall converts a virtual duration to the wall duration it occupies.
func (c *Scaled) wall(d time.Duration) time.Duration {
	w := time.Duration(float64(d) / c.factor)
	if w <= 0 && d > 0 {
		w = 1
	}
	return w
}

// Sleep implements Clock.
func (c *Scaled) Sleep(d time.Duration) { time.Sleep(c.wall(d)) }

// AfterFunc implements Clock: f runs on its own goroutine after the
// scaled wall time.
func (c *Scaled) AfterFunc(d time.Duration, f func()) { time.AfterFunc(c.wall(d), f) }

// Manual is a deterministic Clock whose time only moves when Advance is
// called. Timers fire synchronously during Advance, which makes
// adaptation logic unit-testable without real concurrency delays.
type Manual struct {
	mu  sync.Mutex
	now Time
	// timers are the armed callbacks by deadline, and in arming order
	// among equal deadlines.
	timers []manualTimer
}

type manualTimer struct {
	at Time
	f  func()
}

// NewManual returns a Manual clock starting at virtual time 0.
func NewManual() *Manual { return &Manual{} }

// Now implements Clock.
func (c *Manual) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d, calling every timer whose
// deadline is reached, in deadline order, on the calling goroutine. Now
// reads each timer's deadline while its callback runs; the lock is
// released meanwhile, so a callback may read Now and arm timers, and one
// armed within the advance fires in it.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for len(c.timers) > 0 && c.timers[0].at <= target {
		t := c.timers[0]
		c.timers = slices.Delete(c.timers, 0, 1)
		c.now = t.at
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = target
	c.mu.Unlock()
}

// Sleep implements Clock. With a Manual clock, Sleep blocks until another
// goroutine advances time past the deadline.
func (c *Manual) Sleep(d time.Duration) {
	woke := make(chan struct{})
	c.AfterFunc(d, func() { close(woke) })
	<-woke
}

// AfterFunc implements Clock: f runs during the Advance that reaches
// now+d, or before AfterFunc returns when d <= 0.
func (c *Manual) AfterFunc(d time.Duration, f func()) {
	if d <= 0 {
		f()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.now.Add(d)
	i := sort.Search(len(c.timers), func(i int) bool { return c.timers[i].at > at })
	c.timers = slices.Insert(c.timers, i, manualTimer{at, f})
}
