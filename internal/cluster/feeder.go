package cluster

import (
	"fmt"
	"time"

	"repro/internal/split"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// feedQuantum is the pacing granularity (virtual): the paced feed loops
// route what fell due, flush, and sleep this long.
const feedQuantum = 150 * time.Millisecond

// Feeder is the stream generator proper: it paces the synthetic streams
// against the virtual clock into the split host's router.
type Feeder struct {
	clock  vclock.Clock
	gen    *workload.Generator
	router *split.Router
	// Record, when set, sees every tuple before it is routed (the
	// generator binary's -record). By value: a pointer would move every
	// fed tuple to the heap, recorded or not.
	Record func(tuple.Tuple) error

	// next / fedUntil make the pacing resumable: Feed can be called in
	// phases (chaos scripts feed, crash an engine, and feed again), and
	// each phase continues the virtual schedule where the previous one
	// ended.
	next     []vclock.Time
	fedUntil vclock.Time
}

// NewFeeder returns a Feeder of gen's streams into router.
func NewFeeder(clock vclock.Clock, gen *workload.Generator, router *split.Router) *Feeder {
	return &Feeder{clock: clock, gen: gen, router: router, next: make([]vclock.Time, gen.Config().Streams)}
}

// Feed paces all streams for a further virtual duration d, continuing
// the schedule where the previous call ended. Each stream emits one
// tuple every InterArrival of virtual time.
func (f *Feeder) Feed(d time.Duration) error {
	cfg := f.gen.Config()
	end := f.fedUntil.Add(d)
	f.fedUntil = end
	for {
		now := f.clock.Now()
		for s := 0; s < cfg.Streams; s++ {
			for f.next[s] <= now && f.next[s] < end {
				t := f.gen.Next(s, f.next[s])
				if f.Record != nil {
					if err := f.Record(t); err != nil {
						return fmt.Errorf("cluster: record tuple: %w", err)
					}
				}
				if err := f.router.Route(t); err != nil {
					return fmt.Errorf("cluster: route tuple: %w", err)
				}
				f.next[s] = f.next[s].Add(cfg.InterArrival)
			}
		}
		if err := f.router.Flush(); err != nil {
			return fmt.Errorf("cluster: flush: %w", err)
		}
		if now >= end {
			return nil
		}
		f.clock.Sleep(feedQuantum)
	}
}

// Generated reports the total number of tuples fed across all streams.
func (f *Feeder) Generated() uint64 {
	var n uint64
	for s := 0; s < f.gen.Config().Streams; s++ {
		n += f.gen.Emitted(s)
	}
	return n
}
