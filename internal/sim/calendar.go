package sim

import (
	"math/bits"
	"slices"
)

// Calendar-queue tuning constants.
const (
	// calMinBuckets is the smallest bucket count; the queue never shrinks
	// below it, so tiny queues stay cheap to scan and to rebuild.
	calMinBuckets = 16
	// calInitialWidth is the bucket width before any spacing has been
	// observed, about half a millisecond. The first retune replaces it with
	// a measured value.
	calInitialWidth Time = 1 << 19
	// calRetunePops is how many dequeues pass between width-retune checks.
	calRetunePops = 4096
	// calMinGapSamples is the minimum number of observed inter-event gaps
	// required before the measured average is trusted for retuning.
	calMinGapSamples = 64
	// calWidthFactor scales the average observed inter-event gap into a
	// bucket width (Brown's classic calendar-queue rule of thumb).
	calWidthFactor = 3
)

// calNil terminates bucket chains.
const calNil int32 = -1

// calNode is the calendar's per-event chain node. Nodes live in one slab
// indexed by the owning event's arena slot, so bucket membership costs no
// allocation: inserting an event links its node into the destination
// bucket's chain, which is kept sorted ascending by (time, seq).
type calNode struct {
	at   Time
	seq  uint64
	next int32
}

// calendarQueue is a calendar-queue priority queue over (Time, seq) keys
// (R. Brown, CACM 1988). Virtual time is divided into fixed-width windows
// mapped round-robin onto a power-of-two number of buckets (window w goes to
// bucket w mod nbuckets — one "year" is nbuckets consecutive windows). Each
// bucket is a sorted intrusive chain through the node slab. Inserting links
// into the destination bucket (usually at or near its tail) and popping
// scans forward from the current window, so both are O(1) amortized while
// the bucket width matches the observed event spacing.
//
// The queue retunes itself: bucket count follows the pending-event count
// (doubling/halving with hysteresis) and bucket width follows the average
// inter-event spacing observed at dequeue, checked every calRetunePops pops
// and rebuilt only on at least 2x drift. All resizing decisions are pure
// functions of the operation sequence, so a run is deterministic, and the
// scan always yields the globally minimal (time, seq) entry.
type calendarQueue struct {
	nodes   []calNode // parallel to the scheduler's event arena
	buckets []int32   // head of each bucket's chain, calNil when empty
	mask    int       // len(buckets)-1; len is a power of two
	width   Time      // window width in virtual time: 1 << shift
	shift   uint      // see setWidth
	count   int       // pending entries, including lazily cancelled ones

	// cur is the bucket whose window [curTop-width, curTop) the dequeue
	// scan has reached. Every pending event has at >= curTop-width.
	cur    int
	curTop Time

	// Inter-event spacing observation for width retuning.
	havePop         bool
	lastPopAt       Time
	gapSum          Time
	gapPops         int
	popsSinceRetune int

	// scratch holds all pending entries during a rebuild so redistribution
	// reuses one sorted buffer instead of allocating per resize.
	scratch []timedEnt
}

// reset empties the queue while keeping its storage and tuned width, so a
// recycled scheduler starts from a geometry that already fits the workload.
func (q *calendarQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = calNil
	}
	q.count = 0
	q.cur, q.curTop = 0, 0
	q.havePop, q.lastPopAt = false, 0
	q.resetObservation()
}

// setWidth makes the window width w rounded down to a power of two, so that
// mapping a timestamp to its window — once per insert, on every event — is a
// shift and not a 64-bit divide. w must be at least 1. Which width the queue
// runs at changes what a dequeue scans, never what it yields.
func (q *calendarQueue) setWidth(w Time) {
	q.shift = uint(bits.Len64(uint64(w))) - 1
	q.width = 1 << q.shift
}

// bucketOf maps a timestamp to its bucket index under the current geometry.
func (q *calendarQueue) bucketOf(at Time) int {
	return int(at>>q.shift) & q.mask
}

// anchor points the dequeue scan at the window containing at.
func (q *calendarQueue) anchor(at Time) {
	q.cur = q.bucketOf(at)
	q.curTop = (at>>q.shift + 1) << q.shift
}

// insert adds the entry, anchoring or re-anchoring the dequeue scan when
// needed and growing the calendar once occupancy exceeds two entries per
// bucket. e.idx must be a live arena slot; its node slab entry is (re)used.
func (q *calendarQueue) insert(e timedEnt) {
	if q.buckets == nil {
		q.buckets = make([]int32, calMinBuckets)
		for i := range q.buckets {
			q.buckets[i] = calNil
		}
		q.mask = calMinBuckets - 1
		q.setWidth(calInitialWidth)
	}
	for int(e.idx) >= len(q.nodes) {
		q.nodes = append(q.nodes, calNode{})
	}
	if q.count == 0 || e.at < q.curTop-q.width {
		// The queue was empty, or the event lands before the window the
		// scan has reached (possible after RunUntil advanced the clock
		// past a gap). Pull the scan back so nothing is skipped.
		q.anchor(e.at)
	}
	q.link(e)
	q.count++
	if q.count > 2*len(q.buckets) {
		q.resize()
	}
}

// link places the entry's node into its bucket chain, keeping the chain
// sorted ascending by (time, seq). Timestamps mostly arrive in near-monotone
// order inside a window, so the walk is short.
func (q *calendarQueue) link(e timedEnt) {
	n := &q.nodes[e.idx]
	n.at, n.seq = e.at, e.seq
	b := q.bucketOf(e.at)
	head := q.buckets[b]
	if head == calNil || entLess(e, timedEnt{at: q.nodes[head].at, seq: q.nodes[head].seq}) {
		n.next = head
		q.buckets[b] = e.idx
		return
	}
	prev := head
	for {
		nx := q.nodes[prev].next
		if nx == calNil || entLess(e, timedEnt{at: q.nodes[nx].at, seq: q.nodes[nx].seq}) {
			n.next = nx
			q.nodes[prev].next = e.idx
			return
		}
		prev = nx
	}
}

// peek returns the minimal pending entry without removing it, advancing the
// window scan as a side effect. A full fruitless lap (every pending event
// lies beyond the current year) falls back to a direct minimum search that
// jumps the scan to the earliest event's window.
func (q *calendarQueue) peek() (timedEnt, bool) {
	if q.count == 0 {
		return timedEnt{}, false
	}
	for scanned := 0; scanned < len(q.buckets); scanned++ {
		if head := q.buckets[q.cur]; head != calNil {
			n := &q.nodes[head]
			if n.at < q.curTop {
				return timedEnt{at: n.at, seq: n.seq, idx: head}, true
			}
		}
		q.cur = (q.cur + 1) & q.mask
		q.curTop += q.width
	}
	return q.jumpToMin(), true
}

// jumpToMin finds the globally minimal entry by comparing bucket heads (each
// chain is sorted, so its head is its minimum) and re-anchors the scan at
// that entry's window.
func (q *calendarQueue) jumpToMin() timedEnt {
	var best timedEnt
	found := false
	for _, head := range q.buckets {
		if head == calNil {
			continue
		}
		n := &q.nodes[head]
		e := timedEnt{at: n.at, seq: n.seq, idx: head}
		if !found || entLess(e, best) {
			best, found = e, true
		}
	}
	q.anchor(best.at)
	return best
}

// remove takes out the minimal pending entry e, which the caller has just
// obtained from peek: the scan still rests on e's bucket and e heads its
// chain, so nothing is searched again.
func (q *calendarQueue) remove(e timedEnt) {
	q.buckets[q.cur] = q.nodes[e.idx].next
	q.count--

	if q.havePop {
		q.gapSum += e.at - q.lastPopAt
		q.gapPops++
	}
	q.havePop = true
	q.lastPopAt = e.at
	if q.popsSinceRetune++; q.popsSinceRetune >= calRetunePops {
		q.maybeRetune()
	}
	if q.count < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize()
	}
}

// idealWidth converts the spacing observed since the last retune into a
// bucket width (before setWidth's rounding), or returns 0 when too few gaps
// have accumulated to trust.
func (q *calendarQueue) idealWidth() Time {
	if q.gapPops < calMinGapSamples {
		return 0
	}
	w := calWidthFactor * q.gapSum / Time(q.gapPops)
	if w < 1 {
		w = 1
	}
	return w
}

// maybeRetune rebuilds with a freshly measured width when the current one
// has drifted at least 2x from the observed spacing. The measured width is
// compared before setWidth rounds it, so a spacing that hovers about a power
// of two does not flip the geometry back and forth. Steady-state workloads
// settle after the first retune and never rebuild again.
func (q *calendarQueue) maybeRetune() {
	w := q.idealWidth()
	q.resetObservation()
	if w == 0 || (w < 2*q.width && q.width < 2*w) {
		return
	}
	q.rebuild(len(q.buckets), w)
}

// resize follows the pending-event count: the bucket count becomes the
// smallest power of two >= count (floored at calMinBuckets), keeping average
// occupancy near one entry per bucket. Width is refreshed opportunistically
// from whatever spacing has been observed.
func (q *calendarQueue) resize() {
	n := calMinBuckets
	for n < q.count {
		n *= 2
	}
	w := q.idealWidth()
	if w == 0 {
		w = q.width
	}
	q.resetObservation()
	q.rebuild(n, w)
}

func (q *calendarQueue) resetObservation() {
	q.gapSum, q.gapPops, q.popsSinceRetune = 0, 0, 0
}

// rebuild redistributes every pending entry into a calendar with n buckets
// of width w. Entries are collected into the reusable scratch buffer and
// sorted globally descending-to-front, so refilling is a push-front per
// entry that leaves every chain sorted. The bucket head array keeps the
// largest backing it has had, so the only allocation is a count beyond it.
func (q *calendarQueue) rebuild(n int, w Time) {
	q.scratch = q.scratch[:0]
	for _, head := range q.buckets {
		for idx := head; idx != calNil; idx = q.nodes[idx].next {
			nd := &q.nodes[idx]
			q.scratch = append(q.scratch, timedEnt{at: nd.at, seq: nd.seq, idx: idx})
		}
	}
	if n > cap(q.buckets) {
		q.buckets = make([]int32, n)
	}
	q.buckets, q.mask = q.buckets[:n], n-1
	for i := range q.buckets {
		q.buckets[i] = calNil
	}
	q.setWidth(w)
	slices.SortFunc(q.scratch, func(a, b timedEnt) int {
		switch {
		case entLess(a, b):
			return -1
		case entLess(b, a):
			return 1
		default:
			return 0
		}
	})
	// Prepend in reverse sorted order: each chain comes out ascending.
	for i := len(q.scratch) - 1; i >= 0; i-- {
		e := q.scratch[i]
		b := q.bucketOf(e.at)
		q.nodes[e.idx].next = q.buckets[b]
		q.buckets[b] = e.idx
	}
	if len(q.scratch) > 0 {
		q.anchor(q.scratch[0].at)
	}
}
