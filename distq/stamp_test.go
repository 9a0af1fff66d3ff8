package distq

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/join"
	"repro/internal/tuple"
	"repro/internal/vclock"
)

// countingClock counts the reads of the clock it wraps.
type countingClock struct {
	vclock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() vclock.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestIngestReadsClockOnlyWhenStamped holds Ingest to its stamping rule:
// a query with neither a window nor a filter reads no clock per tuple,
// while a windowed or a filtered one — whose operators read Ts — reads
// it once per tuple. Cluster.Now reads it either way.
func TestIngestReadsClockOnlyWhenStamped(t *testing.T) {
	const n = 10_000
	pass := NewSelect("all", func(*StreamTuple) bool { return true })
	cases := []struct {
		name string
		opts Options
		want int64
	}{
		{"unwindowed", Options{}, 0},
		{"windowed", Options{Window: time.Second}, n},
		{"filtered", Options{Filter: pass}, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Engines, opts.Inputs, opts.Partitions = []NodeID{"m1"}, 2, 8
			c, err := NewCluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clock := &countingClock{Clock: c.clock}
			c.clock = clock
			for i := 0; i < n; i++ {
				if err := c.Ingest(i%2, uint64(i/2), nil); err != nil {
					t.Fatal(err)
				}
			}
			if got := clock.reads.Load(); got != tc.want {
				t.Fatalf("%d Ingests read the clock %d times, want %d", n, got, tc.want)
			}
			c.Now()
			if got := clock.reads.Load(); got != tc.want+1 {
				t.Fatalf("Now did not read the clock: %d reads, want %d", got, tc.want+1)
			}
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStampedQueriesThroughCluster runs the two queries that stamp their
// tuples through a two-engine cluster, in bursts separated by sleeps. A
// pass-through filter records every tuple as the engines see it, stamp
// included, and the results must be exactly the oracle's over those
// tuples. The bursts lie further apart than the window, so the windowed
// query must leave out every pair that spans two bursts.
func TestStampedQueriesThroughCluster(t *testing.T) {
	const (
		inputs   = 2
		bursts   = 3
		perBurst = 400
		window   = 250 * time.Millisecond
		gap      = 600 * time.Millisecond
	)
	run := func(t *testing.T, window time.Duration) ([]tuple.Tuple, *tuple.ResultSet) {
		var (
			mu   sync.Mutex
			seen []tuple.Tuple
		)
		set := tuple.NewResultSet()
		c, err := NewCluster(Options{
			Engines:    []NodeID{"m1", "m2"},
			Inputs:     inputs,
			Partitions: 16,
			Window:     window,
			Filter: NewSelect("record", func(tp *StreamTuple) bool {
				mu.Lock()
				seen = append(seen, tuple.Tuple{Stream: tp.Stream, Key: tp.Key, Seq: tp.Seq, Ts: tp.Ts})
				mu.Unlock()
				return true
			}),
			OnResult: func(_ Phase, r Result) {
				mu.Lock()
				defer mu.Unlock()
				if !set.Add(r) {
					t.Errorf("duplicate result %v", r)
				}
			},
			// Purge expired state while the run lasts.
			StatsInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for b := 0; b < bursts; b++ {
			if b > 0 {
				time.Sleep(gap)
			}
			for i := 0; i < perBurst; i++ {
				// Every burst repeats the same 20 keys on both inputs.
				if err := c.Ingest(i%inputs, uint64(i/inputs%20), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		if d := c.Snapshot().Duplicates; d != 0 {
			t.Fatalf("application server saw %d duplicates", d)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != bursts*perBurst {
			t.Fatalf("the filter saw %d tuples, ingested %d", len(seen), bursts*perBurst)
		}
		return seen, set
	}
	same := func(t *testing.T, got, want *tuple.ResultSet) {
		t.Helper()
		if missing, extra := want.Diff(got), got.Diff(want); len(missing) > 0 || len(extra) > 0 {
			t.Fatalf("%d results, oracle %d: %d missing, %d extra", got.Len(), want.Len(), len(missing), len(extra))
		}
	}

	t.Run("windowed", func(t *testing.T) {
		seen, got := run(t, window)
		same(t, got, join.WindowedOracle(inputs, seen, window))
		if all := join.OracleCount(inputs, seen); uint64(got.Len()) >= all {
			t.Fatalf("windowed join produced %d results, unwindowed %d: the window excluded nothing", got.Len(), all)
		}
	})

	t.Run("filtered", func(t *testing.T) {
		seen, got := run(t, 0)
		same(t, got, join.Oracle(inputs, seen))
		slices.SortFunc(seen, func(a, b tuple.Tuple) int {
			if a.Stream != b.Stream {
				return int(a.Stream) - int(b.Stream)
			}
			return int(a.Seq) - int(b.Seq)
		})
		for i, tp := range seen {
			if tp.Ts == 0 {
				t.Fatalf("the predicate saw %v unstamped", tp)
			}
			if i > 0 && seen[i-1].Stream == tp.Stream && seen[i-1].Ts > tp.Ts {
				t.Fatalf("stamps decrease within stream %d: %v then %v", tp.Stream, seen[i-1], tp)
			}
		}
	})
}
