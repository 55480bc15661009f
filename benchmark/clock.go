package main

import (
	"runtime"
	"time"
)

// hostNow is the benchmark's only host-clock read. Host time measures how
// fast the simulator ran; it never reaches an event loop, so a run's
// virtual-time outcome stays a function of its seed.
func hostNow() time.Time {
	return time.Now() //sttcp:allow simdeterminism host-time measurement of simulator speed, never fed to an event loop
}

// memCounters is the part of runtime.MemStats the per-segment allocation
// metrics are deltas of.
type memCounters struct {
	mallocs uint64
	bytes   uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// heapLiveMB forces a collection and reports the bytes still reachable.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// calibSink keeps the calibration loop's result observable.
var calibSink uint64

// calibUnit is one unit of the fixed pure-CPU calibration loop: 4096
// dependent xorshift steps, no memory traffic. Dividing a host-time metric
// by calib.ns_per_unit gives a figure two machines can compare.
func calibUnit() {
	x := calibSink | 1
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
}
