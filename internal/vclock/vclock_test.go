package vclock

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestManualNowStartsAtZero(t *testing.T) {
	c := NewManual()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestManualAdvance(t *testing.T) {
	c := NewManual()
	c.Advance(3 * time.Second)
	if got := c.Now(); got != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", got)
	}
	c.Advance(500 * time.Millisecond)
	if got := c.Now(); got != Time(3500*time.Millisecond) {
		t.Fatalf("Now() = %v, want 3.5s", got)
	}
}

// fired records the virtual time each AfterFunc callback ran at.
type fired struct {
	c  *Manual
	at []Time
}

func (f *fired) after(d time.Duration) {
	f.c.AfterFunc(d, func() { f.at = append(f.at, f.c.Now()) })
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	f := &fired{c: NewManual()}
	f.after(10 * time.Second)
	if len(f.at) != 0 {
		t.Fatal("timer fired before Advance")
	}
	f.c.Advance(9 * time.Second)
	if len(f.at) != 0 {
		t.Fatal("timer fired early")
	}
	f.c.Advance(time.Second)
	if len(f.at) != 1 || f.at[0] != Time(10*time.Second) {
		t.Fatalf("fired at %v, want once at 10s", f.at)
	}
	f.c.Advance(time.Hour)
	if len(f.at) != 1 {
		t.Fatalf("a one-shot timer fired %d times", len(f.at))
	}
}

// A non-positive duration runs the callback at once, before AfterFunc
// returns, with no Advance.
func TestManualAfterNonPositiveFiresImmediately(t *testing.T) {
	f := &fired{c: NewManual()}
	f.c.Advance(time.Second)
	f.after(0)
	f.after(-time.Second)
	if len(f.at) != 2 || f.at[0] != Time(time.Second) || f.at[1] != Time(time.Second) {
		t.Fatalf("AfterFunc(0) and AfterFunc(-1s) fired at %v, want both at once (1s)", f.at)
	}
}

// Callbacks run in deadline order, and in arming order among equal
// deadlines, whatever order they were armed in.
func TestManualMultipleTimersFireInOrder(t *testing.T) {
	c := NewManual()
	var order []string
	for _, tm := range []struct {
		name string
		d    time.Duration
	}{{"late", 2 * time.Second}, {"early", time.Second}, {"late2", 2 * time.Second}, {"middle", 1500 * time.Millisecond}} {
		c.AfterFunc(tm.d, func() { order = append(order, fmt.Sprintf("%s@%v", tm.name, c.Now())) })
	}
	c.Advance(3 * time.Second)
	want := []string{"early@1s", "middle@1.5s", "late@2s", "late2@2s"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if c.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v after the advance, want 3s", c.Now())
	}
}

// A callback reads Now and arms timers without deadlocking Advance; a
// timer it arms inside the advanced span fires in the same Advance, in
// order, and one past it waits for the next.
func TestManualCallbackMayReadNowAndArm(t *testing.T) {
	c := NewManual()
	var at []Time
	var tick func()
	tick = func() {
		at = append(at, c.Now())
		c.AfterFunc(time.Second, tick)
	}
	c.AfterFunc(time.Second, tick)
	done := make(chan struct{})
	go func() {
		c.Advance(3*time.Second + time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance deadlocked on a callback that reads Now and arms a timer")
	}
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if !slices.Equal(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	c.Advance(time.Second)
	if len(at) != 4 || at[3] != Time(4*time.Second) {
		t.Fatalf("the re-armed timer fired at %v, want a fourth at 4s", at)
	}
}

// Sleep blocks until an Advance reaches its deadline.
func TestManualSleepWaitsForAdvance(t *testing.T) {
	c := NewManual()
	woke := make(chan Time)
	go func() {
		c.Sleep(time.Second)
		woke <- c.Now()
	}()
	// Advance only once the sleeper's timer is armed.
	for {
		c.mu.Lock()
		armed := len(c.timers)
		c.mu.Unlock()
		if armed == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Advance(999 * time.Millisecond)
	select {
	case <-woke:
		t.Fatal("Sleep returned before its deadline")
	default:
	}
	c.Advance(time.Millisecond)
	if at := <-woke; at != Time(time.Second) {
		t.Fatalf("Sleep returned at %v, want 1s", at)
	}
}

// Next steps one period past the last deadline, and skips the periods a
// late handler missed rather than firing them in a burst.
func TestNextKeepsTheRate(t *testing.T) {
	const p = 10 * time.Second
	for _, tc := range []struct {
		due, now, want time.Duration
	}{
		{0, 0, p},                     // armed at Start
		{p, p, 2 * p},                 // handled on time
		{p, p + 3*time.Second, 2 * p}, // late, but within the period
		{p, 2 * p, 3 * p},             // late by exactly one period: that tick is missed
		{p, 4*p + time.Second, 5 * p},
	} {
		if got := Next(Time(tc.due), p, Time(tc.now)); got != Time(tc.want) {
			t.Errorf("Next(%v, %v, now %v) = %v, want %v", tc.due, p, tc.now, got, Time(tc.want))
		}
	}
}

func TestScaledAdvancesFasterThanWall(t *testing.T) {
	c := NewScaled(1000)
	time.Sleep(2 * time.Millisecond)
	if got := c.Now(); got < Time(time.Second) {
		t.Fatalf("Now() = %v, want at least 1s of virtual time", got)
	}
}

func TestScaledSleepCompressesWallTime(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	c.Sleep(time.Second) // should take ~1ms of wall time
	if wall := time.Since(start); wall > 500*time.Millisecond {
		t.Fatalf("Sleep(1s virtual) took %v of wall time", wall)
	}
}

// Scaled.AfterFunc fires once the scaled wall time has passed: 50 ms
// of wall time for 50 virtual seconds at factor 1000.
func TestScaledAfter(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	woke := make(chan time.Duration, 1)
	c.AfterFunc(50*time.Second, func() { woke <- time.Since(start) })
	select {
	case wall := <-woke:
		if wall < 50*time.Millisecond {
			t.Fatalf("AfterFunc(50s virtual) fired after %v of wall time, want at least 50ms", wall)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc did not fire within the wall-time budget")
	}
}

func TestScaledPanicsOnNonPositiveFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewScaled(0) did not panic")
		}
	}()
	NewScaled(0)
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(90 * time.Second)
	b := Time(30 * time.Second)
	if d := a.Sub(b); d != time.Minute {
		t.Fatalf("Sub = %v, want 1m", d)
	}
	if got := b.Add(time.Minute); got != a {
		t.Fatalf("Add = %v, want %v", got, a)
	}
	if m := a.Minutes(); m != 1.5 {
		t.Fatalf("Minutes = %v, want 1.5", m)
	}
	if s := b.Seconds(); s != 30 {
		t.Fatalf("Seconds = %v, want 30", s)
	}
	if str := b.String(); str != "30s" {
		t.Fatalf("String = %q, want 30s", str)
	}
}
