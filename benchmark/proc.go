package main

import (
	"runtime"
	"syscall"
	"time"
)

// procUsage is the process's cumulative CPU time, split as getrusage
// reports it.
type procUsage struct{ user, sys time.Duration }

func (u procUsage) total() time.Duration { return u.user + u.sys }

func (u procUsage) sub(v procUsage) procUsage {
	return procUsage{user: u.user - v.user, sys: u.sys - v.sys}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuNow() procUsage {
	ru := rusage()
	return procUsage{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// peakRSSMB is the process's high-water resident set; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// liveHeapMB forces a collection and returns the heap still in use:
// the memory the cluster's state really holds. Unlike the resident-set
// peak it does not depend on when the collector last ran.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// memCounters is the slice of runtime.MemStats the proc layer reports.
type memCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func memNow() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
	}
}

func (c memCounters) sub(d memCounters) memCounters {
	return memCounters{
		mallocs:    c.mallocs - d.mallocs,
		allocBytes: c.allocBytes - d.allocBytes,
		gcCycles:   c.gcCycles - d.gcCycles,
		gcPause:    c.gcPause - d.gcPause,
	}
}
