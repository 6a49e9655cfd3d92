package main

import (
	"math"
	"time"
)

// On a shared 2-vCPU Intel Xeon VM the host's speed drifts over minutes:
// the cores change clock rate with the load of the machine's other
// tenants, and the tenants contend for the shared caches, memory and
// sibling hyperthreads. An op's wall time moves by up to ±40% with it.
// The benchmark therefore charges every op and set-up in reference time:
// its wall time multiplied by the host's speed, the mean of the speeds
// measured just before and just after it. Speed is refKernelTime divided
// by the time the reference kernel takes now.
//
// The kernel is the benchmark's own code, so no change to the repository
// moves it. It imitates the simulator's commonest work: it probes a
// set-associative tag table larger than L2 with a stream of addresses and
// runs a binary-heap event queue. A chain of dependent multiply-adds, which
// follows the clock rate alone, removed much less of the drift; README.md
// gives the measurements.
const (
	kernelSets    = 1 << 14
	kernelWays    = 8      // 1 MiB of tags
	kernelEvents  = 4096   // events pending in the queue
	kernelIters   = 20_000 // one run, 2 to 3 ms on that VM
	kernelRepeats = 3      // the fastest run counts: interference only adds time
	// refKernelTime is about a run's time there when the host is quiet,
	// so that reference time reads close to wall time then.
	refKernelTime = 2 * time.Millisecond
	// speedStaleness is how long a measured speed is reused between ops.
	speedStaleness = 100 * time.Millisecond
)

// refKernel measures the host's speed. It is not safe for concurrent use.
type refKernel struct {
	tags   []uint64
	events []uint64 // min-heap of event times
	x      uint64   // address generator state
	now    uint64

	last float64 // speed at the last measurement
	at   time.Time
}

func newRefKernel() *refKernel {
	k := &refKernel{tags: make([]uint64, kernelSets*kernelWays), events: make([]uint64, 0, kernelEvents+1), x: 1}
	for len(k.events) < kernelEvents {
		k.push(k.next() >> 44)
	}
	k.run(4 * kernelIters) // fault the table in and fill it
	return k
}

// measure returns the host's speed now. It takes a few milliseconds.
func (k *refKernel) measure() float64 {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < kernelRepeats; r++ {
		t0 := time.Now()
		k.run(kernelIters)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	k.last, k.at = float64(refKernelTime)/float64(best), time.Now()
	return k.last
}

// speed returns the host's speed, measuring it again when the last
// measurement is older than speedStaleness.
func (k *refKernel) speed() float64 {
	if k.last == 0 || time.Since(k.at) >= speedStaleness {
		return k.measure()
	}
	return k.last
}

func (k *refKernel) next() uint64 {
	k.x = k.x*6364136223846793005 + 1442695040888963407
	return k.x
}

// run probes the tag table iters times, mostly within a small hot region,
// replacing a random way on a miss, and schedules each probe's completion
// on the event queue in place of the earliest pending event.
func (k *refKernel) run(iters int) {
	for i := 0; i < iters; i++ {
		x := k.next()
		line := x >> 38
		if x&7 < 5 {
			line &= 0xFFFF
		}
		set := line & (kernelSets - 1)
		tag := line >> 14
		ways := k.tags[set*kernelWays : (set+1)*kernelWays]
		lat := uint64(100)
		for _, t := range ways {
			if t == tag {
				lat = 4
				break
			}
		}
		if lat != 4 {
			ways[(x>>8)%kernelWays] = tag
		}
		k.now = k.pop()
		k.push(k.now + lat + (x>>50)&15)
	}
}

func (k *refKernel) push(v uint64) {
	h := append(k.events, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.events = h
}

func (k *refKernel) pop() uint64 {
	h := k.events
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.events = h
	return v
}
