package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mafic/internal/sim"
)

// The link retires transmitted packets lazily (see "Link occupancy" in
// doc.go). The oracle here is the link it replaced: one transmit-done event
// per packet decrementing the occupancy count, one arrival event. Both are
// driven by the same script, each on its own scheduler, and must produce the
// same log line for line.

// refUnit is the grid all script instants sit on: the serialisation time of
// one byte at refBandwidth, exact in floating point (8/4096 s = 5^9 ns), so
// sends land exactly on transmit-done instants all the time.
const (
	refUnit      = 1953125 * sim.Nanosecond
	refBandwidth = 4096
)

// linkUnderTest is what a script drives: the real link or the reference.
type linkUnderTest interface {
	scheduler() *sim.Scheduler
	send(id uint64, size int) string
	queueLen() int
	setDown(down bool)
	totals() [3]uint64 // sent, queue drops, fault drops
}

// refLink is the two-event link.
type refLink struct {
	s        *sim.Scheduler
	cfg      LinkConfig
	nextFree sim.Time
	queued   int
	down     bool
	tot      [3]uint64
	arrive   func(id uint64, now sim.Time, alive bool)
}

func (r *refLink) scheduler() *sim.Scheduler { return r.s }
func (r *refLink) queueLen() int             { return r.queued }
func (r *refLink) setDown(down bool)         { r.down = down }
func (r *refLink) totals() [3]uint64         { return r.tot }

func (r *refLink) send(id uint64, size int) string {
	if r.down {
		r.tot[2]++
		return "fault-drop"
	}
	if r.queued >= r.cfg.QueueLen {
		r.tot[1]++
		return "queue-drop"
	}
	r.queued++
	r.tot[0]++
	start := max(r.s.Now(), r.nextFree)
	r.nextFree = start + r.cfg.transmissionTime(size)
	r.s.ScheduleAt(r.nextFree, func(sim.Time) { r.queued-- })
	r.s.ScheduleAt(r.nextFree+r.cfg.Delay, func(now sim.Time) {
		if r.down {
			r.tot[2]++
		}
		r.arrive(id, now, !r.down)
	})
	return "sent"
}

// realLink wraps a Link between two hosts of a real Network.
type realLink struct {
	s *sim.Scheduler
	n *Network
	l *Link
}

func newRealLink(t *testing.T, cfg LinkConfig, arrive func(id uint64, now sim.Time, alive bool)) *realLink {
	t.Helper()
	s := sim.NewScheduler()
	n := New(s, sim.NewRNG(1))
	a, b := n.AddHost(IP(1)), n.AddHost(IP(2))
	l, err := n.Connect(a.ID(), b.ID(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDefaultHandler(func(p *Packet, now sim.Time) { arrive(p.ID, now, true) })
	n.SetHooks(Hooks{OnFaultDrop: func(p *Packet, at NodeID, now sim.Time) {
		if at == b.ID() { // died in flight; admission drops are logged by send
			arrive(p.ID, now, false)
		}
	}})
	return &realLink{s: s, n: n, l: l}
}

func (r *realLink) scheduler() *sim.Scheduler { return r.s }
func (r *realLink) queueLen() int             { return r.l.QueueLen() }
func (r *realLink) setDown(down bool)         { r.l.SetDown(down) }
func (r *realLink) totals() [3]uint64 {
	return [3]uint64{r.l.Sent(), r.l.Dropped(), r.l.FaultDropped()}
}

func (r *realLink) send(id uint64, size int) string {
	p := r.n.NewPacket()
	p.ID, p.Size, p.Label = id, size, FlowLabel{SrcIP: 1, DstIP: 2}
	before := r.totals()
	r.l.Send(p)
	switch after := r.totals(); {
	case after[0] != before[0]:
		return "sent"
	case after[1] != before[1]:
		return "queue-drop"
	default:
		return "fault-drop"
	}
}

// refAction is one thing a script does to the link at one instant, from
// inside an event or from outside the run loop.
type refAction struct {
	down  int   // 1 takes the link down, 0 brings it up, -1 leaves it
	sizes []int // packets to send, in order
	stop  bool  // call Scheduler.Stop (inside the loop only)
	// later are events this action schedules after its sends, so they are
	// numbered after the packets it sent; after is in grid units.
	later []refLater
}

type refLater struct {
	after int
	act   *refAction
}

// refScript is a whole run. slots[k] holds actions scheduled at instant k,
// one event each, before anything is sent; steps run the loop up to a
// deadline and then act from outside it.
type refScript struct {
	cfg     LinkConfig
	observe bool // log QueueLen after every action and arrival
	slots   [][]*refAction
	steps   []refStep
	onStop  *refAction // done from outside the loop whenever a run was stopped
}

type refStep struct {
	until   int
	outside []*refAction
}

// runRefScript drives one link through the script and returns its log.
func runRefScript(t *testing.T, sc *refScript, mk func(arrive func(uint64, sim.Time, bool)) linkUnderTest) []string {
	t.Helper()
	var log []string
	var lt linkUnderTest
	logf := func(format string, args ...any) {
		line := fmt.Sprintf("t=%d ", lt.scheduler().Now()/refUnit) + fmt.Sprintf(format, args...)
		if sc.observe {
			line += fmt.Sprintf(" queue=%d", lt.queueLen())
		}
		log = append(log, line)
	}
	lt = mk(func(id uint64, _ sim.Time, alive bool) {
		if alive {
			logf("arrive %d", id)
		} else {
			logf("die %d", id)
		}
	})
	s := lt.scheduler()

	var id uint64
	var apply func(a *refAction)
	apply = func(a *refAction) {
		if a.down >= 0 {
			lt.setDown(a.down == 1)
			logf("down=%d", a.down)
		}
		for _, size := range a.sizes {
			id++
			logf("send %d: %s", id, lt.send(id, size))
		}
		for _, l := range a.later {
			s.ScheduleAt(s.Now()+sim.Time(l.after)*refUnit, func(sim.Time) { apply(l.act) })
		}
		if a.stop {
			s.Stop()
		}
	}
	for k, acts := range sc.slots {
		for _, a := range acts {
			s.ScheduleAt(sim.Time(k)*refUnit, func(sim.Time) { apply(a) })
		}
	}
	runTo := func(run func() error) {
		for {
			err := run()
			if err == nil {
				return
			}
			if err != sim.ErrStopped {
				t.Fatal(err)
			}
			logf("stopped")
			apply(sc.onStop)
		}
	}
	for _, st := range sc.steps {
		runTo(func() error { return s.RunUntil(sim.Time(st.until) * refUnit) })
		logf("deadline")
		for _, a := range st.outside {
			apply(a)
		}
	}
	runTo(s.Run)
	log = append(log, fmt.Sprintf("totals %v queue=%d", lt.totals(), lt.queueLen()))
	return log
}

// compareWithReference runs the script on the real link and on the reference
// and returns the real link's log.
func compareWithReference(t *testing.T, sc *refScript) []string {
	t.Helper()
	if sc.onStop == nil {
		sc.onStop = &refAction{down: -1}
	}
	cfg := sc.cfg
	real := runRefScript(t, sc, func(arrive func(uint64, sim.Time, bool)) linkUnderTest {
		return newRealLink(t, cfg, arrive)
	})
	ref := runRefScript(t, sc, func(arrive func(uint64, sim.Time, bool)) linkUnderTest {
		s := sim.NewScheduler()
		return &refLink{s: s, cfg: cfg, arrive: arrive}
	})
	for i := 0; i < len(real) || i < len(ref); i++ {
		var a, b string
		if i < len(real) {
			a = real[i]
		}
		if i < len(ref) {
			b = ref[i]
		}
		if a != b {
			t.Fatalf("%+v: log line %d:\n link:      %q\n reference: %q\ncontext (link log):\n  %v",
				sc.cfg, i, a, b, real[max(0, i-8):min(len(real), i+1)])
		}
	}
	return real
}

// hasLine reports whether the log holds the line, with or without a queue
// observation behind it.
func hasLine(log []string, line string) bool {
	return slices.ContainsFunc(log, func(s string) bool { return s == line || strings.HasPrefix(s, line+" queue=") })
}

// TestLinkFullQueueAtTransmitDoneInstant constructs the case the tie rule
// decides: the queue is full and a Send happens at exactly the instant the
// blocking packet finishes transmitting. The packet is admitted iff the
// sending event was scheduled after the blocking packet was sent — a
// transmit-done event would have been numbered before it. A rule that only
// compares times (txDone <= now) admits both and fails here.
func TestLinkFullQueueAtTransmitDoneInstant(t *testing.T) {
	one := func() *refAction { return &refAction{down: -1, sizes: []int{1}} }
	for _, delay := range []sim.Time{0, refUnit, 3 * refUnit} {
		for _, observe := range []bool{false, true} {
			cfg := LinkConfig{BandwidthBps: refBandwidth, Delay: delay, QueueLen: 1}

			// Packet 1 leaves at instant 0 and is transmitted at instant
			// 1. The event sending packet 2 at instant 1 was scheduled
			// before packet 1 was sent.
			before := &refScript{cfg: cfg, observe: observe, slots: [][]*refAction{{one()}, {one()}}}
			log := compareWithReference(t, before)
			if !hasLine(log, "t=1 send 2: queue-drop") {
				t.Fatalf("delay %v: sender scheduled before the blocking packet was admitted:\n%v", delay, log)
			}

			// The same, but the sending event is scheduled by the event
			// that sent packet 1, after sending it.
			first := one()
			first.later = []refLater{{after: 1, act: one()}}
			after := &refScript{cfg: cfg, observe: observe, slots: [][]*refAction{{first}}}
			log = compareWithReference(t, after)
			if !hasLine(log, "t=1 send 2: sent") {
				t.Fatalf("delay %v: sender scheduled after the blocking packet was refused:\n%v", delay, log)
			}

			// Outside the loop, after RunUntil(1): everything up to the
			// deadline has fired, packet 1's transmission included.
			outside := &refScript{cfg: cfg, observe: observe, slots: [][]*refAction{{one()}},
				steps: []refStep{{until: 1, outside: []*refAction{one()}}}}
			log = compareWithReference(t, outside)
			if !hasLine(log, "t=1 send 2: sent") {
				t.Fatalf("delay %v: transmission ending at the deadline not retired by it:\n%v", delay, log)
			}

			// But what is sent from out there has not, even with zero
			// serialisation time: packet 2's transmission ends at instant
			// 1 and is still not over until the loop runs again.
			cfg.BandwidthBps = 0
			outside.cfg, outside.steps[0].outside = cfg, []*refAction{one(), one()}
			log = compareWithReference(t, outside)
			if !hasLine(log, "t=1 send 3: queue-drop") {
				t.Fatalf("delay %v: zero-time transmission retired outside the loop:\n%v", delay, log)
			}
		}
	}
}

// randomRefScript draws a script: bursts from a small size set on a tiny
// queue, every instant on the grid so ties are the rule, link flaps, events
// scheduling events, Stop, and RunUntil deadlines on the same grid with
// sends from outside the loop between them.
func randomRefScript(rng *rand.Rand, observe bool) *refScript {
	const instants = 24
	sc := &refScript{
		cfg: LinkConfig{
			BandwidthBps: []float64{0, refBandwidth, refBandwidth, refBandwidth / 2}[rng.Intn(4)],
			Delay:        []sim.Time{0, refUnit, 3 * refUnit}[rng.Intn(3)],
			QueueLen:     1 + rng.Intn(4),
		},
		observe: observe,
		slots:   make([][]*refAction, instants),
	}
	var action func(depth int, inLoop bool) *refAction
	action = func(depth int, inLoop bool) *refAction {
		a := &refAction{down: -1}
		if rng.Intn(12) == 0 {
			a.down = rng.Intn(2)
		}
		for n := rng.Intn(4); n > 0; n-- {
			a.sizes = append(a.sizes, 1+rng.Intn(3))
		}
		if !inLoop {
			return a
		}
		for depth < 3 && rng.Intn(3) == 0 {
			a.later = append(a.later, refLater{after: rng.Intn(4), act: action(depth+1, true)})
		}
		a.stop = rng.Intn(16) == 0
		return a
	}
	for k := range sc.slots {
		for n := rng.Intn(3); n > 0; n-- {
			sc.slots[k] = append(sc.slots[k], action(0, true))
		}
	}
	for until := rng.Intn(6); until < instants+6; until += rng.Intn(8) {
		st := refStep{until: until}
		for n := rng.Intn(3); n > 0; n-- {
			st.outside = append(st.outside, action(0, false))
		}
		sc.steps = append(sc.steps, st)
	}
	sc.onStop = action(0, false)
	return sc
}

// TestLinkMatchesReferenceLink is the property test: seeded random scripts,
// with and without QueueLen observations in between (QueueLen settles the
// count as a side effect, so a run that never looks must agree too).
func TestLinkMatchesReferenceLink(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		drops := 0
		for seed := int64(1); seed <= 400; seed++ {
			for _, observe := range []bool{false, true} {
				sc := randomRefScript(rand.New(rand.NewSource(seed)), observe)
				for _, line := range compareWithReference(t, sc) {
					if strings.Contains(line, "queue-drop") {
						drops++
					}
				}
			}
		}
		if drops == 0 {
			t.Fatal("no script ever filled the queue")
		}
	})
}
