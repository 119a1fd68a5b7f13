package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// hostNominalMS is what one hostUnit took, as a median beside an idle
// system, on the 2-core box the workloads were sized on. A run reports its
// end-to-end metrics as they would read on a host of exactly this speed.
const hostNominalMS = 6.0

// hostBurstFor is how long one burst of host units lasts. A run places one
// before the set-up and before each phase of every cycle.
const hostBurstFor = 100 * time.Millisecond

var hostSink atomic.Int64

// hostUnit runs one fixed job on every core at once and returns how long
// the slowest took, in ms. The job has the system's appetite — map lookups,
// appends, short-lived garbage — and none of its code, so a change to the
// system cannot move it.
func hostUnit() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hostSink.Store(int64(hostJob()))
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func hostJob() int {
	const keys = 4096
	sum := 0
	for round := 0; round < 4; round++ {
		m := make(map[uint64][]uint64, keys)
		x := uint64(round + 1)
		for i := 0; i < 4*keys; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 33) % keys
			m[k] = append(m[k], x)
		}
		for _, vs := range m {
			for _, v := range vs {
				sum += len(m[(v>>20)%keys])
			}
		}
	}
	return sum
}

// hostBurst appends one burst of host units to units.
func hostBurst(units []float64) []float64 {
	for end := time.Now().Add(hostBurstFor); time.Now().Before(end); {
		units = append(units, hostUnit())
	}
	return units
}

// hostFactor is how much slower than nominal the host ran while units were
// taken: 1.25 means a quarter slower.
func hostFactor(units []float64) float64 {
	if len(units) == 0 {
		return 1
	}
	return median(units) / hostNominalMS
}
