package main

import "time"

// paceProbe measures how fast the host is running right now. It is a small
// frozen kernel of this package's own — a hold model on a binary heap whose
// events each touch one of 65 536 cache lines picked at random, 4 MB in all —
// that behaves towards a busy neighbour the way the simulator does: it loses
// a fifth to a half of its speed when the simulator does. The timed loop runs
// it before and after every job and divides the job's times by the pace it
// found, so that a metric reads what the job would have taken on a host
// running the probe at probeNominalS; see README.md for why. Over four minutes
// in which the ten-second medians of an identical table2 job ranged over 30%,
// those of job time over probe time ranged over 6%.
//
// Nothing under internal/ is involved, so no change to the program under test
// moves the probe; it allocates nothing after construction and holds no
// pointers, so it is nothing to the program's garbage collector either.
type paceProbe struct {
	heap []probeEvent
	pay  [][8]int64
	x    uint64
}

type probeEvent struct {
	t   int64
	pay uint32
}

const (
	probePending = 2048
	probeLines   = 1 << 16
	// probeOps hold operations take about 8 ms.
	probeOps = 80_000
	// probeNominalS is what one probe between two table2 jobs takes on the
	// two-core reference host when nothing disturbs it. Timings are
	// reported at that pace; on that host, left alone, they are plain
	// seconds.
	probeNominalS = 0.0108
)

func newPaceProbe() *paceProbe {
	p := &paceProbe{
		heap: make([]probeEvent, 0, probePending),
		pay:  make([][8]int64, probeLines),
		x:    88172645463325252,
	}
	for len(p.heap) < probePending {
		p.push(probeEvent{t: int64(p.next() % 1_000_000), pay: uint32(p.next() % probeLines)})
	}
	// Twice through untimed: the first pass faults the 4 MB in.
	p.run()
	p.run()
	return p
}

// next is xorshift64.
func (p *paceProbe) next() uint64 {
	p.x ^= p.x << 13
	p.x ^= p.x >> 7
	p.x ^= p.x << 17
	return p.x
}

func (p *paceProbe) push(e probeEvent) {
	h := append(p.heap, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	p.heap = h
}

func (p *paceProbe) pop() probeEvent {
	h := p.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && h[child+1].t < h[child].t {
			child++
		}
		if h[i].t <= h[child].t {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	p.heap = h
	return top
}

// run performs probeOps hold operations — take the earliest event, touch its
// cache line, reschedule it later on another line — and returns the seconds
// they took.
func (p *paceProbe) run() float64 {
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		e := p.pop()
		line := &p.pay[e.pay]
		line[0]++
		e.t += line[3]&1 + int64(p.next()%1_000_000) + 1
		e.pay = uint32(p.next() % probeLines)
		p.push(e)
	}
	return time.Since(t0).Seconds()
}

// pace turns the probe readings taken before and after an interval into the
// host's pace over it: 1 on an undisturbed reference host, 1.3 where
// everything takes three tenths longer.
func pace(before, after float64) float64 { return (before + after) / 2 / probeNominalS }
