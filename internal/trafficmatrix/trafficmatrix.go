// Package trafficmatrix implements the set-union counting measurement layer
// of the paper (Section II): every router keeps two LogLog sketches per
// measurement epoch — S_i, the identities of packets injected into the domain
// at that router, and D_j, the identities of packets terminating there — and
// a monitor periodically estimates the traffic matrix
//
//	a_ij = |S_i ∩ D_j| = |S_i| + |D_j| − |S_i ∪ D_j|
//
// from which the pushback layer detects victims (abnormally large |D_j|) and
// identifies the attack-transit routers (large a_ij toward the victim).
//
// # Matrix on demand
//
// An epoch tick estimates the 2·n vector entries |S_i| and |D_j| and stops:
// detection reads |D_j|, and identification ranks one column — the sources of
// traffic toward the victim — in the few epochs that have a victim. So the
// n² cells are not built per epoch; a report delivered to the onReport
// callback is live, it refers to its monitor, and TopSources /
// AppendTopSources estimate the ≤ n unions of the requested column from the
// epoch's frozen sketch halves when called. Cells materialises the whole
// matrix the same way. Either gives exactly the numbers an eager computation
// would: same sketches, same arithmetic, same order.
//
// # Epoch pipeline and report lifetime
//
// The layer is allocation-free in steady state. Each counter records into the
// active half of a double-buffered sketch pair; at an epoch boundary the pair
// is swapped (the epoch freezes into the shadow half, the active half is
// cleared) instead of cloned. The monitor owns one set of dense
// NodeID-indexed estimate tables reused across epochs, mirroring the netsim
// packet pool's ownership rules. A live report therefore is valid only until
// its monitor moves on — the next epoch tick, the next Compute, Reset or
// Release: after that the tables hold another epoch and the shadow halves
// another epoch's packets. A live report is stamped with the monitor's
// generation, and reading its matrix (TopSources, AppendTopSources, Cells,
// Clone) after the monitor has moved on panics rather than mix two epochs.
// A delayed report on the lossy control channel travels as an owned copy,
// the whole matrix materialised into Matrix — the only form a snapshot
// stores — and the monitor takes it back when it has been delivered, to
// refill it at a later delayed epoch. So every report handed to onReport,
// live or delayed, is valid only during the call; a callback that needs to
// retain one keeps EpochReport.Clone, an owned report valid indefinitely.
// The reference live reports are tested against is test-only: alloc_test.go
// recomputes every report eagerly from the counters' sketches into fresh
// tables at callback time. Across runs the monitor is kept, not rebuilt:
// Reset instruments the next run's network with the same sketch slab, tables
// and delayed reports, as experiment's run bundle does.
//
// # Error of an estimate
//
// A LogLog sketch of m buckets estimates a cardinality n with relative
// standard error σ = 1.30/√m (loglog.RelativeStandardError; 4 % at the
// default m = 1024). a_ij is a sum of three such estimates, so its error is
// absolute, not relative to a_ij: at most σ·(|S_i| + |D_j| + |S_i ∪ D_j|) ≤
// 2σ·(|S_i| + |D_j|) per standard deviation, whatever the size of the
// intersection. A small flow between a busy source and a busy destination is
// below the noise; the victim's column is where |D_j| is large and the
// contributions that matter are a sizeable share of it. truth_test.go checks
// both bounds at 4σ against exact per-router packet-ID sets.
//
// # Monitored set
//
// By default the monitor instruments only the routers that can ever record
// traffic: those with at least one attached host. A counter's S_i sketch
// fills only at a packet's first router (Hops == 0, the sending host's access
// router) and its D_j sketch only at a router directly linked to the
// destination host, so a router with no host neighbour contributes nothing to
// any epoch report — attaching 4 sketches × every router would spend almost
// all of its memory and rotation work on counters that stay empty for the
// whole run. MonitorConfig.Monitored pins an explicit set instead; listing
// every router there is the reference the default is tested against
// (monitored_test.go, and the whole catalog in internal/experiment): the
// reports agree on every estimate and matrix cell, and only
// EpochReport.Routers is longer.
package trafficmatrix

import (
	"errors"
	"fmt"
	"slices"

	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// CounterName is the filter name router-attached counters register under.
const CounterName = "loglog-counter"

// Counter is the per-router measurement element, the analogue of the
// LogLogCounter Connector subclass the paper adds to NS-2. It implements
// netsim.Filter and never drops packets.
type Counter struct {
	router  *netsim.Router
	buckets int

	source loglog.Pair // S_i: packets entering the domain here
	dest   loglog.Pair // D_j: packets terminating here

	sourcePkts uint64
	destPkts   uint64
	transit    uint64
}

var _ netsim.Filter = (*Counter)(nil)

// init wires a counter in place onto four sketches of slab, which become its
// two double-buffered pairs: the monitor builds every counter of a domain from
// one allocation.
func (c *Counter) init(router *netsim.Router, buckets int, slab []loglog.Sketch) error {
	src, err := loglog.PairOf(&slab[0], &slab[1])
	if err != nil {
		return fmt.Errorf("source sketch: %w", err)
	}
	dst, err := loglog.PairOf(&slab[2], &slab[3])
	if err != nil {
		return fmt.Errorf("dest sketch: %w", err)
	}
	*c = Counter{router: router, buckets: buckets, source: src, dest: dst}
	return nil
}

// Name implements netsim.Filter.
func (c *Counter) Name() string { return CounterName }

// Router returns the router the counter observes.
func (c *Counter) Router() *netsim.Router { return c.router }

// Handle records the packet into the appropriate sketches and always lets it
// continue: the measurement layer is purely passive.
func (c *Counter) Handle(pkt *netsim.Packet, _ sim.Time, at *netsim.Router) netsim.Action {
	// Control traffic (pushback signalling, probes) is not user traffic
	// and is excluded from the matrix.
	if pkt.Kind == netsim.KindControl || pkt.Kind == netsim.KindProbe {
		return netsim.ActionForward
	}
	if pkt.Hops == 0 {
		c.source.Active().Add(pkt.ID)
		c.sourcePkts++
	} else {
		c.transit++
	}
	// D_j fills at the destination's attachment routers. AttachmentLink
	// reads the host's inline attachment record (and is nil for NoNode),
	// where a LinkBetween probe would be a per-packet adjacency search that
	// misses almost everywhere.
	destNode := pkt.DestOwner(at.Network())
	if at.Network().AttachmentLink(at.ID(), destNode) != nil {
		c.dest.Active().Add(pkt.ID)
		c.destPkts++
	}
	return netsim.ActionForward
}

// SourceEstimate returns the running estimate of |S_i| for the epoch in
// progress.
func (c *Counter) SourceEstimate() float64 { return c.source.Active().Estimate() }

// DestEstimate returns the running estimate of |D_j| for the epoch in
// progress.
func (c *Counter) DestEstimate() float64 { return c.dest.Active().Estimate() }

// SourcePackets returns the exact number of packets counted into S_i this
// epoch (used by tests to validate the sketches).
func (c *Counter) SourcePackets() uint64 { return c.sourcePkts }

// DestPackets returns the exact number of packets counted into D_j.
func (c *Counter) DestPackets() uint64 { return c.destPkts }

// epochSketches returns the sketches to compute an epoch report from: the
// frozen shadow halves after a rotate, or the live active halves for
// mid-epoch diagnostics.
func (c *Counter) epochSketches(frozen bool) (src, dst *loglog.Sketch) {
	if frozen {
		return c.source.Shadow(), c.dest.Shadow()
	}
	return c.source.Active(), c.dest.Active()
}

// rotate ends the counter's epoch: both pairs swap, freezing the finished
// epoch in their shadow halves and clearing the active halves for the next
// one. Nothing is cloned and nothing allocates.
func (c *Counter) rotate() {
	c.source.Swap()
	c.dest.Swap()
	c.sourcePkts = 0
	c.destPkts = 0
	c.transit = 0
}

// Cell is one traffic-matrix entry: the estimated number of distinct packets
// entering at Source and terminating at Dest during the epoch.
type Cell struct {
	Source netsim.NodeID
	Dest   netsim.NodeID
	// Packets is the a_ij estimate.
	Packets float64
}

// cellByPacketsDesc orders cells by descending contribution. A named
// top-level function keeps the sort closure-free.
func cellByPacketsDesc(a, b Cell) int {
	switch {
	case a.Packets > b.Packets:
		return -1
	case a.Packets < b.Packets:
		return 1
	default:
		return 0
	}
}

// EpochReport is the monitor's per-epoch output. Estimates live in dense
// NodeID-indexed tables rather than maps so readers index instead of hash
// and iteration order is deterministic (ascending router ID).
//
// A report handed to the monitor's onReport callback is valid only during
// the call, and one returned by Compute only until the monitor moves on (see
// the package comment), unless copied with Clone: a live report shares the
// monitor's tables and answers matrix queries from its sketches, and a
// delayed one is the monitor's own copy, refilled at a later delayed epoch.
// Reports obtained from Clone or built by hand are owned: they carry their
// matrix in Matrix and stay valid indefinitely.
type EpochReport struct {
	// Epoch is the index of the measurement period, starting at 1.
	Epoch int
	// Start and End bound the measurement period.
	Start, End sim.Time
	// Routers lists every router carrying a counter (the monitored set),
	// ascending by ID.
	Routers []netsim.NodeID
	// SourceEst and DestEst are the |S_i| and |D_j| estimate tables,
	// indexed by NodeID; entries for IDs outside Routers are zero. Use
	// SourceEstimate/DestEstimate for bounds-checked access.
	SourceEst, DestEst []float64
	// Matrix holds an owned report's a_ij estimates for every (source, dest)
	// pair with non-trivial traffic, ordered by ascending (source, dest). A
	// live report leaves it nil; Cells reads either kind.
	Matrix []Cell

	// live is the monitor a live report reads its matrix from, gen the
	// monitor's generation when the report was computed. Nil in an owned
	// report.
	live *Monitor
	gen  uint64
}

// SourceEstimate returns the |S_i| estimate for the given router, or zero.
func (r *EpochReport) SourceEstimate(id netsim.NodeID) float64 {
	if id < 0 || int(id) >= len(r.SourceEst) {
		return 0
	}
	return r.SourceEst[id]
}

// DestEstimate returns the |D_j| estimate for the given router, or zero.
func (r *EpochReport) DestEstimate(id netsim.NodeID) float64 {
	if id < 0 || int(id) >= len(r.DestEst) {
		return 0
	}
	return r.DestEst[id]
}

// TopSources returns the source routers ranked by their estimated
// contribution a_ij toward the given destination router, largest first.
func (r *EpochReport) TopSources(dest netsim.NodeID) []Cell {
	return r.AppendTopSources(nil, dest)
}

// AppendTopSources appends the ranked sources for dest to dst and returns
// the extended slice; passing a reused buffer makes the ranking
// allocation-free. A live report estimates the column here, from its
// monitor's sketches.
func (r *EpochReport) AppendTopSources(dst []Cell, dest netsim.NodeID) []Cell {
	start := len(dst)
	if r.live != nil {
		dst = r.live.appendColumn(dst, r.gen, dest)
	} else {
		for _, c := range r.Matrix {
			if c.Dest == dest {
				dst = append(dst, c)
			}
		}
	}
	slices.SortFunc(dst[start:], cellByPacketsDesc)
	return dst
}

// Cells returns the whole matrix, ascending by (source, dest), in a slice the
// caller owns: a copy of an owned report's Matrix, a live report's n²
// estimates materialised. Consumers that rank one destination want
// AppendTopSources.
func (r *EpochReport) Cells() []Cell { return r.appendCells(nil) }

// appendCells appends the whole matrix to dst, as Cells returns it.
func (r *EpochReport) appendCells(dst []Cell) []Cell {
	if r.live != nil {
		return r.live.appendCells(dst, r.gen)
	}
	return append(dst, r.Matrix...)
}

// Clone returns a deep copy of the report that owns its backing arrays and
// its matrix, for callers that retain reports beyond the onReport callback.
func (r *EpochReport) Clone() EpochReport {
	var cp EpochReport
	r.cloneInto(&cp)
	return cp
}

// cloneInto makes dst an owned copy of r, refilling dst's backing arrays.
func (r *EpochReport) cloneInto(dst *EpochReport) {
	*dst = EpochReport{Epoch: r.Epoch, Start: r.Start, End: r.End,
		Routers:   append(dst.Routers[:0], r.Routers...),
		SourceEst: append(dst.SourceEst[:0], r.SourceEst...),
		DestEst:   append(dst.DestEst[:0], r.DestEst...),
		Matrix:    r.appendCells(dst.Matrix[:0])}
}

// MonitorStats counts the estimation work a monitor has done since
// NewMonitor. The counts depend only on the run, not on the machine, so they
// repeat exactly.
type MonitorStats struct {
	// Epochs is the number of reports computed (epoch ticks whose report
	// was not lost, plus Compute calls).
	Epochs uint64
	// Estimates is the number of single-sketch estimates: two per monitored
	// router per computed report.
	Estimates uint64
	// Columns is the number of matrix columns estimated on demand; a whole
	// matrix (Cells, Clone) counts one per monitored router.
	Columns uint64
	// Unions is the number of union estimates behind those columns.
	Unions uint64
}

// Monitor aggregates the per-router counters: once per epoch it estimates
// every |S_i| and |D_j|, and it answers the epoch report's matrix queries
// from the frozen sketches on demand — the role the TrafficMonitor object
// plays in the paper's NS-2 implementation.
type Monitor struct {
	sched *sim.Scheduler
	// counters holds the counter of every monitored router, in routerIDs
	// order: one allocation for the whole monitored set, and no table as
	// wide as the network.
	counters []Counter
	// sketchSlab backs every counter's four sketches; Reset keeps it, so a
	// monitor's dominant construction cost — the sketch memory — is paid
	// once.
	sketchSlab []loglog.Sketch
	// routerIDs lists the instrumented routers ascending; every per-epoch
	// loop walks this, never a map, and Counter searches it.
	routerIDs []netsim.NodeID
	epoch     sim.Time

	epochIndex int
	epochStart sim.Time
	onReport   func(EpochReport)

	// Lossy control channel (see MonitorConfig). ctrlRNG is non-nil only
	// when a loss or delay probability is configured: a monitor with both
	// knobs zero draws no randomness at all, which is what keeps fault-free
	// runs bit-identical to builds without the lossy channel.
	reportLoss  float64
	delayProb   float64
	reportDelay sim.Time
	ctrlRNG     *sim.RNG

	// Reused report backing (see the package comment). gen identifies what
	// the tables and the sketch halves currently hold: it moves with every
	// rotation, every computed report, every Reset and every Release, and a
	// live report is readable only while it still carries the current value.
	// frozen says which halves the current report was computed from.
	srcEst, dstEst []float64
	gen            uint64
	frozen         bool
	stats          MonitorStats
	// nbScratch is the reusable neighbour buffer behind the automatic
	// monitored-set derivation.
	nbScratch []netsim.NodeID
	// late lists every delayed report the monitor has made and spare the
	// ones not in flight, which the next delayed epoch refills in place.
	late, spare []*EpochReport

	stop    bool
	running bool
}

var _ sim.ArgHandler = (*Monitor)(nil)

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// Epoch is the measurement period length.
	Epoch sim.Time
	// Buckets is the LogLog bucket count for every counter; zero means
	// loglog.DefaultBuckets.
	Buckets int
	// Monitored restricts instrumentation to the given routers (order and
	// duplicates are irrelevant; NewMonitor rejects IDs that are not
	// routers of the network). Empty selects the automatic set: every
	// router with at least one attached host, which the package comment
	// shows is report-equivalent to monitoring all of them.
	Monitored []netsim.NodeID
	// ReportLoss is the probability, drawn once per epoch, that the epoch's
	// report is lost: counters still rotate and the epoch index advances
	// (downstream consumers see a numbering gap), but no report reaches the
	// onReport callback. Zero (the default) disables loss and draws no
	// randomness.
	ReportLoss float64
	// ReportDelayProb is the probability that a surviving report is
	// delivered ReportDelay late instead of at the epoch boundary. Delayed
	// reports are deep copies, valid like any report during the callback,
	// and may arrive after newer epochs' reports — consumers must tolerate
	// out-of-order delivery. Zero disables delay and draws no randomness.
	ReportDelayProb float64
	// ReportDelay is how late a delayed report arrives. Required positive
	// when ReportDelayProb is set.
	ReportDelay sim.Time
}

// Validate reports configuration problems. Zero values are valid — they
// select the package defaults, exactly as NewMonitor treats them; anything
// else must be a positive epoch and a legal LogLog bucket count.
func (c MonitorConfig) Validate() error {
	if c.Epoch < 0 {
		return fmt.Errorf("%w: epoch %v must not be negative", ErrMonitorConfig, c.Epoch)
	}
	if c.Buckets != 0 {
		if _, err := loglog.New(c.Buckets); err != nil {
			return fmt.Errorf("%w: %v", ErrMonitorConfig, err)
		}
	}
	for _, id := range c.Monitored {
		if id < 0 {
			return fmt.Errorf("%w: monitored node %d is negative", ErrMonitorConfig, id)
		}
	}
	if c.ReportLoss < 0 || c.ReportLoss > 1 {
		return fmt.Errorf("%w: report loss %v must be in [0,1]", ErrMonitorConfig, c.ReportLoss)
	}
	if c.ReportDelayProb < 0 || c.ReportDelayProb > 1 {
		return fmt.Errorf("%w: report delay probability %v must be in [0,1]", ErrMonitorConfig, c.ReportDelayProb)
	}
	if c.ReportDelay < 0 {
		return fmt.Errorf("%w: report delay %v must not be negative", ErrMonitorConfig, c.ReportDelay)
	}
	if c.ReportDelayProb > 0 && c.ReportDelay <= 0 {
		return fmt.Errorf("%w: report delay probability %v needs a positive ReportDelay", ErrMonitorConfig, c.ReportDelayProb)
	}
	return nil
}

// ErrMonitorConfig is returned by MonitorConfig.Validate.
var ErrMonitorConfig = errors.New("trafficmatrix: invalid monitor config")

// monitoredSet resolves the configured monitored set into the sorted,
// deduplicated router-ID list the monitor instruments, appending into ids
// (the recycled routerIDs backing). nb is a reusable neighbour buffer for the
// automatic host-adjacency walk; the possibly-grown buffer is returned so the
// monitor keeps its capacity.
func monitoredSet(net *netsim.Network, cfg MonitorConfig, ids, nb []netsim.NodeID) ([]netsim.NodeID, []netsim.NodeID, error) {
	if len(cfg.Monitored) > 0 {
		for _, id := range cfg.Monitored {
			if net.Router(id) == nil {
				return nil, nb, fmt.Errorf("%w: monitored node %d is not a router of the network", ErrMonitorConfig, id)
			}
			ids = append(ids, id)
		}
	} else {
		// Automatic set: routers adjacent to at least one host — the only
		// routers whose counters can record anything (see the package
		// comment). A router neighbours several hosts; the sort below
		// brings its repeats together for Compact.
		net.ForEachNode(func(hid netsim.NodeID, _ *netsim.Router, h *netsim.Host) {
			if h == nil {
				return
			}
			nb = net.AppendNeighbors(nb[:0], hid)
			for _, r := range nb {
				if net.Router(r) != nil {
					ids = append(ids, r)
				}
			}
		})
	}
	slices.Sort(ids)
	return slices.Compact(ids), nb, nil
}

// NewMonitor creates a monitor and attaches a counter to each router of the
// configured monitored set — by default every router with an attached host,
// which yields the same reports as instrumenting all of them (see the package
// comment). The onReport callback receives each epoch's traffic matrix; see
// the package comment for the report's lifetime rules.
func NewMonitor(net *netsim.Network, cfg MonitorConfig, onReport func(EpochReport)) (*Monitor, error) {
	m := new(Monitor)
	if err := m.Reset(net, cfg, onReport); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset makes m what NewMonitor(net, cfg, onReport) returns, keeping its
// storage: the sketch slab — at stress scale tens of megabytes of counter
// state, reset rather than reallocated when the bucket count is unchanged —
// the counter slab, the dense tables, the delayed reports (any still in
// flight is reclaimed) and the report generation, which moves on so that no
// live report of m's last run can be read. Call it only once no event of
// that run can fire. A failed Reset leaves m fit only for another Reset.
func (m *Monitor) Reset(net *netsim.Network, cfg MonitorConfig, onReport func(EpochReport)) error {
	if cfg.Buckets <= 0 {
		cfg.Buckets = loglog.DefaultBuckets
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * sim.Millisecond
	}
	ids, nb, err := monitoredSet(net, cfg, m.routerIDs[:0], m.nbScratch[:0])
	m.nbScratch = nb
	if err != nil {
		return err
	}
	width := 0
	if len(ids) > 0 {
		width = int(ids[len(ids)-1]) + 1
	}

	// One sketch slab and one counter slab cover every router: counter
	// construction is O(1) allocations regardless of domain size, and a
	// recycled slab with matching bucket geometry is simply reset.
	need := 4 * len(ids)
	sketches := m.sketchSlab
	if len(sketches) >= need && (need == 0 || sketches[0].Buckets() == cfg.Buckets) {
		for i := range sketches[:need] {
			sketches[i].Reset()
		}
	} else if sketches, err = loglog.NewSlab(need, cfg.Buckets); err != nil {
		return err
	}
	counters := m.counters
	if cap(counters) >= len(ids) {
		counters = counters[:len(ids)]
	} else {
		counters = make([]Counter, len(ids))
	}

	srcEst, dstEst := m.srcEst, m.dstEst
	if cap(srcEst) >= width {
		srcEst = srcEst[:width]
		dstEst = dstEst[:width]
	} else {
		srcEst = make([]float64, width)
		dstEst = make([]float64, width)
	}

	// The control-channel RNG is forked only when a loss/delay knob is
	// actually set: a fault-free monitor consumes no draw from the
	// network's stream, preserving bit-identity with the pre-fault-layer
	// engine.
	var ctrlRNG *sim.RNG
	if cfg.ReportLoss > 0 || cfg.ReportDelayProb > 0 {
		ctrlRNG = net.RNG().Fork()
	}
	// Everything not carried over here starts from zero.
	*m = Monitor{
		sched:       net.Scheduler(),
		counters:    counters,
		sketchSlab:  sketches,
		routerIDs:   ids,
		epoch:       cfg.Epoch,
		onReport:    onReport,
		srcEst:      srcEst,
		dstEst:      dstEst,
		gen:         m.gen + 1,
		nbScratch:   nb,
		late:        m.late,
		spare:       append(m.spare[:0], m.late...),
		reportLoss:  cfg.ReportLoss,
		delayProb:   cfg.ReportDelayProb,
		reportDelay: cfg.ReportDelay,
		ctrlRNG:     ctrlRNG,
	}
	for i, id := range ids {
		c := &m.counters[i]
		r := net.Router(id)
		if err := c.init(r, cfg.Buckets, sketches[4*i:4*i+4]); err != nil {
			return err
		}
		r.AttachFilter(c)
	}
	return nil
}

// Release drops the monitor's references into its run — the scheduler, the
// report callback, the control-channel stream and the routers its counters
// watch — so that a monitor kept past its run pins no network, and moves the
// report generation on, so that no live report of it can be read afterwards.
// Call it only once no epoch tick can fire; Reset makes it usable again.
func (m *Monitor) Release() {
	m.gen++
	m.sched = nil
	m.onReport = nil
	m.ctrlRNG = nil
	for i := range m.counters {
		m.counters[i].router = nil
	}
}

// Counter returns the counter attached to the given router, or nil when the
// router is outside the monitored set (or the ID is not a router at all).
func (m *Monitor) Counter(id netsim.NodeID) *Counter {
	if i, ok := slices.BinarySearch(m.routerIDs, id); ok {
		return &m.counters[i]
	}
	return nil
}

// Epoch returns the measurement period length.
func (m *Monitor) Epoch() sim.Time { return m.epoch }

// Start schedules periodic epoch processing beginning one epoch from now.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.stop = false
	m.epochStart = m.sched.Now()
	m.sched.ScheduleArgAt(m.epochStart+m.epoch, m, nil)
}

// Stop halts epoch processing after the current epoch completes.
func (m *Monitor) Stop() { m.stop = true }

// OnEventArg implements sim.ArgHandler. With a nil argument it is the epoch
// tick; with a *EpochReport it is a delayed report reaching the consumer,
// the owned copy made at its epoch boundary, which the monitor takes back
// after the callback unless a restore made it. Scheduling the monitor itself
// (not a bound method value) keeps the periodic rescheduling allocation-free.
func (m *Monitor) OnEventArg(now sim.Time, arg any) {
	if late, ok := arg.(*EpochReport); ok {
		if m.onReport != nil {
			m.onReport(*late)
		}
		if slices.Contains(m.late, late) {
			m.spare = append(m.spare, late)
		}
		return
	}
	m.gen++
	for i := range m.counters {
		m.counters[i].rotate()
	}
	if m.ctrlRNG != nil && m.ctrlRNG.Bool(m.reportLoss) {
		// The report is lost on the control channel: the epoch still ends
		// (counters rotated above) and its index is still consumed, so
		// consumers observe a numbering gap — but nothing is computed or
		// delivered.
		m.epochIndex++
		m.finishEpoch(now)
		return
	}
	report := m.compute(now, true)
	if m.onReport != nil {
		if m.ctrlRNG != nil && m.ctrlRNG.Bool(m.delayProb) {
			// Delayed delivery: the tables and sketches roll on with the
			// next epoch, so a spare report is refilled with its own copy
			// of them and the matrix, the n² unions confined to this path.
			if len(m.spare) == 0 {
				late := new(EpochReport)
				m.late, m.spare = append(m.late, late), append(m.spare, late)
			}
			late := m.spare[len(m.spare)-1]
			m.spare = m.spare[:len(m.spare)-1]
			report.cloneInto(late)
			m.sched.ScheduleArgAt(now+m.reportDelay, m, late)
		} else {
			m.onReport(report)
		}
	}
	m.finishEpoch(now)
}

// finishEpoch advances the epoch window and reschedules the tick.
func (m *Monitor) finishEpoch(now sim.Time) {
	m.epochStart = now
	if m.stop {
		m.running = false
		return
	}
	m.sched.ScheduleArgAt(now+m.epoch, m, nil)
}

// Compute builds an EpochReport from the counters' current in-progress state
// without ending the epoch. The periodic tick instead freezes the epoch via
// the pair swap and computes from the frozen halves; tests and on-demand
// diagnostics call Compute directly. The returned report is live like a
// callback report (see the package comment): it reads the active halves, so
// packets counted after Compute show in its matrix but not in its vectors.
func (m *Monitor) Compute(now sim.Time) EpochReport {
	return m.compute(now, false)
}

// compute assembles the epoch report from either the frozen or the live
// sketch halves, reusing the monitor's tables: the 2·n vector
// estimates, no matrix cell.
func (m *Monitor) compute(now sim.Time, frozen bool) EpochReport {
	m.epochIndex++
	m.gen++
	m.frozen = frozen
	m.stats.Epochs++
	m.stats.Estimates += 2 * uint64(len(m.routerIDs))
	srcEst, dstEst := m.srcEst, m.dstEst
	// The tables may have been reset from a run that instrumented other
	// routers; entries outside this monitored set must read zero.
	clear(srcEst)
	clear(dstEst)
	for i, id := range m.routerIDs {
		src, dst := m.counters[i].epochSketches(frozen)
		srcEst[id] = src.Estimate()
		dstEst[id] = dst.Estimate()
	}
	return EpochReport{
		Epoch:     m.epochIndex,
		Start:     m.epochStart,
		End:       now,
		Routers:   m.routerIDs,
		SourceEst: srcEst,
		DestEst:   dstEst,
		live:      m,
		gen:       m.gen,
	}
}

// checkLive panics when a live report stamped gen is read after the monitor
// has moved on: its tables and sketch halves now hold another epoch, and an
// answer assembled from them would silently mix the two.
func (m *Monitor) checkLive(gen uint64) {
	if gen != m.gen {
		panic("trafficmatrix: live EpochReport read after its monitor moved on to another epoch; retain reports with Clone")
	}
}

// appendCell appends a_ij = |S_i| + |D_j| − |S_i ∪ D_j| for the current
// report when source, destination and the estimate itself each reach one
// packet: i and j are the routers' places in the monitored set.
func (m *Monitor) appendCell(dst []Cell, i, j int) []Cell {
	src, dest := m.routerIDs[i], m.routerIDs[j]
	if m.srcEst[src] < 1 || m.dstEst[dest] < 1 {
		return dst
	}
	si, _ := m.counters[i].epochSketches(m.frozen)
	_, dj := m.counters[j].epochSketches(m.frozen)
	m.stats.Unions++
	union, err := loglog.UnionEstimate(si, dj)
	if err != nil {
		return dst
	}
	aij := m.srcEst[src] + m.dstEst[dest] - union
	if aij < 1 {
		return dst
	}
	return append(dst, Cell{Source: src, Dest: dest, Packets: aij})
}

// appendColumn appends the cells toward dest, ascending by source.
func (m *Monitor) appendColumn(dst []Cell, gen uint64, dest netsim.NodeID) []Cell {
	m.checkLive(gen)
	m.stats.Columns++
	j, ok := slices.BinarySearch(m.routerIDs, dest)
	if !ok {
		return dst
	}
	for i := range m.routerIDs {
		dst = m.appendCell(dst, i, j)
	}
	return dst
}

// appendCells appends the whole matrix, ascending by (source, dest).
func (m *Monitor) appendCells(dst []Cell, gen uint64) []Cell {
	m.checkLive(gen)
	m.stats.Columns += uint64(len(m.routerIDs))
	for i := range m.routerIDs {
		for j := range m.routerIDs {
			dst = m.appendCell(dst, i, j)
		}
	}
	return dst
}

// Stats reports the estimation work done so far.
func (m *Monitor) Stats() MonitorStats { return m.stats }
