package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

// memDelta measures what fn allocates and how many collections ran while it
// did. ReadMemStats stops the world, so it stays outside any timed interval.
type memDelta struct {
	allocMB  float64
	mallocs  uint64
	gcCycles uint32
	pauseMS  float64
}

func measureMem(fn func()) memDelta {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:  after.Mallocs - before.Mallocs,
		gcCycles: after.NumGC - before.NumGC,
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// heapMB collects garbage and returns the live heap in MB.
func heapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
