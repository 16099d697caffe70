package main

import "time"

// refCalibNs is the calibration kernel's time on the reference host the
// reported host times are scaled to.
const refCalibNs = 3e6

// scale is the factor that takes a host time measured between two
// calibration runs to the reference host.
func scale(before, after time.Duration) float64 {
	return 2 * refCalibNs / float64(before+after)
}

// The kernel's state is allocated once, so that a run of the kernel
// allocates nothing: it can neither start a collection nor pay for one.
var (
	calibHeap [4096]uint64
	calibMap  = make(map[uint64]uint64, 4096)
	// calibSink keeps the kernel's result live so the compiler cannot
	// drop it.
	calibSink uint64
)

// calibrate times a fixed kernel that shares none of the repository's
// code: pushes and pops on a 2048-entry binary heap and updates of a
// 4096-key map, the branchy, cache-resident bookkeeping the simulator
// itself does. On the shared 2-vCPU Xeon VM the benchmark was sized on,
// host speed halved at times as other tenants loaded the machine, and
// the kernel slowed down with the simulator. Scaling by it cancels most
// of that drift, and no change to the repository can move the kernel.
// Callers run it right after a forced collection, so that no collector
// cycle runs beside it.
func calibrate() time.Duration {
	t0 := time.Now()
	clear(calibMap)
	h, n := calibHeap[:], 0
	x := uint64(7)
	for i := 0; i < 50_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h[n] = x
		for j := n; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		n++
		calibMap[x&4095] += x
		if n <= 2048 {
			continue
		}
		top := h[0]
		n--
		h[0] = h[n]
		for k := 0; ; {
			l := 2*k + 1
			if l >= n {
				break
			}
			s := l
			if r := l + 1; r < n && h[r] < h[l] {
				s = r
			}
			if h[k] <= h[s] {
				break
			}
			h[k], h[s] = h[s], h[k]
			k = s
		}
		calibSink += top + calibMap[top&4095]
	}
	return time.Since(t0)
}
