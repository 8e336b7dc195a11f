package experiment

import (
	"fmt"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/trafficmatrix"
)

// This file is the declarative fault-injection layer: a Scenario carries a
// FaultSpec describing link flaps, router crash/restore windows and a lossy
// control plane, and buildRun compiles it into scheduled events on the same
// deterministic event queue as the workload. Faults are therefore seeded and
// reproducible: the same scenario produces the same churn under Run and
// RunMany, serial or parallel. With the zero FaultSpec no event is scheduled
// and no RNG is forked, so every fault-free run is bit-identical to a build
// without this layer at all.

// LinkFlap schedules a periodic outage of the duplex link between two routers:
// both simplex directions go down together at Start and every Period after it,
// each outage lasting DownFor.
type LinkFlap struct {
	// RouterA and RouterB are indices into the domain's router slice
	// (topology build order), not NodeIDs, so a flap schedule is meaningful
	// before the topology exists and survives the Quick scale-down as long
	// as the indices stay inside the smaller domain.
	RouterA int `json:"routerA"`
	RouterB int `json:"routerB"`
	// Start is when the first outage begins.
	Start sim.Time `json:"start"`
	// DownFor is the length of each outage.
	DownFor sim.Time `json:"downFor"`
	// Period is the time between consecutive outage starts; required when
	// Count is greater than one, and must exceed DownFor so the link is up
	// between flaps.
	Period sim.Time `json:"period,omitempty"`
	// Count is the number of outages; zero means one. It is at most
	// maxFlapCount, and the last outage must start before the run ends.
	Count int `json:"count,omitempty"`
}

// maxFlapCount caps LinkFlap.Count: a build schedules two events per outage.
// The catalog and the search grid use at most 3.
const maxFlapCount = 1000

// RouterCrash schedules a whole-router failure window: at CrashAt the router
// stops forwarding, measuring and defending; at RestoreAt it rejoins the
// domain. A zero RestoreAt means the router never comes back.
type RouterCrash struct {
	// Router is an index into the domain's router slice, as in LinkFlap.
	Router int `json:"router"`
	// CrashAt is when the router fails.
	CrashAt sim.Time `json:"crashAt"`
	// RestoreAt, when positive, is when the router rejoins; it must be
	// after CrashAt.
	RestoreAt sim.Time `json:"restoreAt,omitempty"`
}

// FaultSpec is a scenario's complete failure model. The zero value injects
// nothing and costs nothing.
type FaultSpec struct {
	// LinkFlaps are the scheduled duplex-link outages.
	LinkFlaps []LinkFlap `json:"linkFlaps,omitempty"`
	// RouterCrashes are the scheduled router failure windows.
	RouterCrashes []RouterCrash `json:"routerCrashes,omitempty"`
	// ReportLoss is the probability that a finished measurement epoch's
	// report is lost on the control plane (trafficmatrix
	// MonitorConfig.ReportLoss).
	ReportLoss float64 `json:"reportLoss,omitempty"`
	// ReportDelayProb and ReportDelay delay surviving reports with the
	// given probability by the given time (MonitorConfig.ReportDelayProb /
	// ReportDelay).
	ReportDelayProb float64  `json:"reportDelayProb,omitempty"`
	ReportDelay     sim.Time `json:"reportDelay,omitempty"`
}

// Validate reports specification problems against a domain of the given
// router count and a run of the given duration. Link existence cannot be
// checked here — chords are random — so buildRun rejects flaps naming
// unconnected router pairs at build time.
func (f FaultSpec) Validate(routers int, duration sim.Time) error {
	for i, fl := range f.LinkFlaps {
		if fl.RouterA < 0 || fl.RouterA >= routers || fl.RouterB < 0 || fl.RouterB >= routers {
			return fmt.Errorf("%w: link flap %d references router pair (%d,%d) outside the %d-router domain",
				ErrScenario, i, fl.RouterA, fl.RouterB, routers)
		}
		if fl.RouterA == fl.RouterB {
			return fmt.Errorf("%w: link flap %d connects router %d to itself", ErrScenario, i, fl.RouterA)
		}
		if fl.Start < 0 {
			return fmt.Errorf("%w: link flap %d starts at negative time %v", ErrScenario, i, fl.Start)
		}
		if fl.DownFor <= 0 {
			return fmt.Errorf("%w: link flap %d outage length %v must be positive", ErrScenario, i, fl.DownFor)
		}
		if fl.Count < 0 {
			return fmt.Errorf("%w: link flap %d has negative count %d", ErrScenario, i, fl.Count)
		}
		if fl.Count > maxFlapCount {
			return fmt.Errorf("%w: link flap %d count %d is above %d", ErrScenario, i, fl.Count, maxFlapCount)
		}
		if fl.Count > 1 && fl.Period <= fl.DownFor {
			return fmt.Errorf("%w: link flap %d period %v must exceed outage length %v",
				ErrScenario, i, fl.Period, fl.DownFor)
		}
		// The last outage starts at Start + (Count-1)·Period; compared by
		// division, so no product can overflow.
		if fl.Start >= duration || fl.Count > 1 && sim.Time(fl.Count-1) > (duration-1-fl.Start)/fl.Period {
			return fmt.Errorf("%w: link flap %d has an outage that starts after the %v run", ErrScenario, i, duration)
		}
	}
	for i, rc := range f.RouterCrashes {
		if rc.Router < 0 || rc.Router >= routers {
			return fmt.Errorf("%w: router crash %d references router %d outside the %d-router domain",
				ErrScenario, i, rc.Router, routers)
		}
		if rc.CrashAt < 0 {
			return fmt.Errorf("%w: router crash %d at negative time %v", ErrScenario, i, rc.CrashAt)
		}
		if rc.RestoreAt != 0 && rc.RestoreAt <= rc.CrashAt {
			return fmt.Errorf("%w: router crash %d restores at %v, not after the crash at %v",
				ErrScenario, i, rc.RestoreAt, rc.CrashAt)
		}
	}
	if err := f.controlPlane(trafficmatrix.MonitorConfig{}).Validate(); err != nil {
		return fmt.Errorf("%w: faults: %v", ErrScenario, err)
	}
	return nil
}

// controlPlane returns mc carrying the spec's control-plane faults, report
// loss and delay: the monitor configuration a run builds, and the one Validate
// checks them in.
func (f FaultSpec) controlPlane(mc trafficmatrix.MonitorConfig) trafficmatrix.MonitorConfig {
	mc.ReportLoss, mc.ReportDelayProb, mc.ReportDelay = f.ReportLoss, f.ReportDelayProb, f.ReportDelay
	return mc
}

// faultDown is the handler of a topology fault's build-time events: whether
// the link or router in the event's argument goes down or comes back. It is a
// byte and the argument a pointer, so a build makes no closure for them. Both
// simplex directions of a flapped link flip together.
type faultDown bool

func (down faultDown) OnEventArg(_ sim.Time, arg any) {
	switch x := arg.(type) {
	case *netsim.Link:
		x.SetDown(bool(down))
		if rev := x.Reverse(); rev != nil {
			rev.SetDown(bool(down))
		}
	case *netsim.Router:
		if down {
			_ = x.Network().FailRouter(x.ID())
		} else {
			_ = x.Network().RestoreRouter(x.ID())
		}
	}
}

// installFaults compiles the spec's topology faults into scheduled events.
// The flapped link is resolved once, at build time, so a flap naming two
// unconnected routers fails the run up front instead of silently flapping
// nothing.
func installFaults(f FaultSpec, d *topology.Domain, sched *sim.Scheduler) error {
	for i, fl := range f.LinkFlaps {
		a, b := d.Routers[fl.RouterA].ID(), d.Routers[fl.RouterB].ID()
		link := d.Net.LinkBetween(a, b)
		if link == nil {
			link = d.Net.LinkBetween(b, a)
		}
		if link == nil {
			return fmt.Errorf("%w: link flap %d: no link between routers %d and %d",
				ErrScenario, i, fl.RouterA, fl.RouterB)
		}
		count := fl.Count
		if count == 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			downAt := fl.Start + sim.Time(k)*fl.Period
			sched.ScheduleArgAt(downAt, faultDown(true), link)
			sched.ScheduleArgAt(downAt+fl.DownFor, faultDown(false), link)
		}
	}
	for _, rc := range f.RouterCrashes {
		r := d.Routers[rc.Router]
		sched.ScheduleArgAt(rc.CrashAt, faultDown(true), r)
		if rc.RestoreAt > 0 {
			sched.ScheduleArgAt(rc.RestoreAt, faultDown(false), r)
		}
	}
	return nil
}
