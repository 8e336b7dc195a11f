// Package pushback implements victim detection and attack-transit-router
// (ATR) identification on top of the set-union counting traffic matrix, i.e.
// the decision layer from the paper's Section II: when a last-hop router's
// |D_j| becomes abnormally high, the routers contributing the largest a_ij
// toward it are flagged as ATRs and told to start adaptive dropping. Once
// raised, pushback stays in force for the rest of the run.
//
// # ATR hysteresis
//
// The paper identifies ATRs once, from the single epoch that crossed the
// detection threshold. A pulsed or rotating attacker exploits that: only the
// groups flooding during the triggering epoch are identified, and the groups
// that were quiet keep an unpoliced path to the victim forever after.
//
// Setting Config.ATRRise enables cross-epoch hysteresis. While pushback is in
// force the coordinator keeps, per eligible router, an exponentially weighted
// score of its contribution share toward the protected victim:
//
//	score' = max(ATRDecay·score, ATRRise·share + (1−ATRRise)·score)
//
// A router that contributes grows its score with weight ATRRise; a router
// that goes quiet keeps ATRDecay of its score per epoch instead of being
// forgotten outright. When a router's score reaches Config.ATRShare it is
// added to the identified set and the pushback request is re-issued with the
// grown set — so an aggregate identified during one flooding slot stays
// identified through the slots its sources spend silent, and late-arriving
// groups are picked up the moment they start contributing. Identification is
// sticky: scores decay, but a router once reported is never un-reported.
// Both knobs default to zero,
// which reproduces the paper's one-shot identification exactly.
//
// A coordinator outlives its run when its owner wants it to: Reset starts it
// over for the next run on the tables it has grown, which is how experiment's
// run bundle keeps one for all of its runs.
package pushback

import (
	"errors"
	"fmt"
	"slices"

	"mafic/internal/netsim"
	"mafic/internal/trafficmatrix"
)

// ATR describes one identified attack-transit router and its estimated
// contribution to the victim's traffic.
type ATR struct {
	// Router is the identified ingress router.
	Router netsim.NodeID
	// Packets is the estimated number of distinct packets it injected
	// toward the victim during the triggering epoch (a_ij).
	Packets float64
	// Share is Packets divided by the victim's |D_j| estimate.
	Share float64
}

// Request is the pushback instruction delivered to the defence layer when an
// attack is detected.
type Request struct {
	// Epoch is the measurement epoch that triggered the request.
	Epoch int
	// VictimRouter is the last-hop router in front of the victim.
	VictimRouter netsim.NodeID
	// VictimLoad is the |D_j| estimate that crossed the threshold.
	VictimLoad float64
	// ATRs lists the identified attack-transit routers, largest
	// contributor first. It is valid only during the onPushback call: the
	// coordinator refills the same buffer for its next request.
	ATRs []ATR
}

// Config tunes the detector. A victim is detected by one rule: the busiest
// router of the epoch, at least MinVictimLoad, at HistoryFactor times its own
// EWMA baseline or more once MinHistoryEpochs epochs have been seen. Pushback
// is never withdrawn once raised: the victim's measured load drops as soon as
// the ATRs start dropping, so a victim-side withdrawal test would oscillate.
type Config struct {
	// HistoryFactor triggers when the busiest router's |D_j| reaches this
	// multiple of its own exponentially weighted moving average over
	// previous epochs: a flooding attack shows up as a sudden departure from
	// the router's own baseline. Zero disables detection.
	HistoryFactor float64
	// MinHistoryEpochs is how many epochs of history are required before
	// the history test may fire. Zero means 2.
	MinHistoryEpochs int
	// MinVictimLoad is the minimum |D_j| (distinct packets per epoch)
	// required for any trigger, guarding against firing on noise over a
	// nearly idle router.
	MinVictimLoad float64
	// ATRShare is the minimum fraction of the victim's |D_j| an ingress
	// router must contribute to be flagged as an ATR.
	ATRShare float64
	// ATRRise, when positive, enables cross-epoch ATR hysteresis (see the
	// package doc): it is the EWMA weight given to a router's current
	// contribution share when its ATR score rises. Zero disables
	// hysteresis and reproduces the paper's one-shot identification.
	ATRRise float64
	// ATRDecay is the fraction of a router's ATR score retained through an
	// epoch in which the router contributes nothing — the memory that
	// keeps a rotating attacker's quiet groups identified. Only meaningful
	// with ATRRise > 0; zero selects the default 0.85.
	ATRDecay float64
	// StaleEpochs, when positive, is the staleness timeout for a lossy
	// control channel: when the gap between consecutively delivered epoch
	// reports reaches StaleEpochs missing epochs, the per-router |D_j|
	// baselines are considered stale and are relearned from scratch —
	// detection thresholds computed against a pre-outage baseline would
	// otherwise fire (or fail to fire) against a world that no longer
	// exists. Zero keeps baselines through gaps of any length.
	StaleEpochs int
	// RefireBackoffEpochs, when positive, rate-limits hysteresis re-fires:
	// a grown identified set is re-issued only once at least this many
	// epochs have passed since the previous request, so pushback does not
	// thrash the defence layer when churn makes identification flap. The
	// grown set is never lost — it fires as soon as the backoff allows.
	// Zero re-fires immediately (the historical behaviour).
	RefireBackoffEpochs int
	// Eligible restricts ATR identification to the given routers
	// (typically the domain's ingress routers). Empty means any router
	// may be identified.
	Eligible []netsim.NodeID
}

// ErrConfig is returned by Validate for inconsistent detector settings.
var ErrConfig = errors.New("pushback: invalid config")

// Validate reports configuration problems. Zero values are legal for every
// tunable (they select a default or disable a test); Validate rejects values
// that are outright contradictory.
func (c Config) Validate() error {
	if c.HistoryFactor < 0 {
		return fmt.Errorf("%w: history factor %v", ErrConfig, c.HistoryFactor)
	}
	if c.MinHistoryEpochs < 0 {
		return fmt.Errorf("%w: min history epochs %d", ErrConfig, c.MinHistoryEpochs)
	}
	if c.MinVictimLoad < 0 {
		return fmt.Errorf("%w: min victim load %v", ErrConfig, c.MinVictimLoad)
	}
	if c.ATRShare < 0 || c.ATRShare > 1 {
		return fmt.Errorf("%w: ATR share %v outside [0,1]", ErrConfig, c.ATRShare)
	}
	if c.ATRRise < 0 || c.ATRRise > 1 {
		return fmt.Errorf("%w: ATR rise %v outside [0,1]", ErrConfig, c.ATRRise)
	}
	if c.ATRDecay < 0 || c.ATRDecay > 1 {
		return fmt.Errorf("%w: ATR decay %v outside [0,1]", ErrConfig, c.ATRDecay)
	}
	if c.StaleEpochs < 0 {
		return fmt.Errorf("%w: stale epochs %d", ErrConfig, c.StaleEpochs)
	}
	if c.RefireBackoffEpochs < 0 {
		return fmt.Errorf("%w: refire backoff epochs %d", ErrConfig, c.RefireBackoffEpochs)
	}
	return nil
}

// DefaultConfig returns detector settings that work for the scenario scale
// used in this repository's experiments.
func DefaultConfig() Config {
	return Config{
		HistoryFactor:    1.5,
		MinHistoryEpochs: 2,
		MinVictimLoad:    50,
		ATRShare:         0.02,
	}
}

// HardenedConfig returns DefaultConfig with cross-epoch ATR hysteresis
// enabled: contribution shares fold into the ATR scores with weight 0.5 and
// quiet routers keep 85% of their score per epoch, so a rotating attacker's
// currently-silent groups stay identified and newly flooding groups are
// reported within an epoch or two of their first slot.
func HardenedConfig() Config {
	c := DefaultConfig()
	c.ATRRise = 0.5
	c.ATRDecay = 0.85
	c.StaleEpochs = 4
	c.RefireBackoffEpochs = 2
	return c
}

// Coordinator consumes traffic-matrix epoch reports and raises pushback
// requests.
type Coordinator struct {
	cfg Config

	onPushback func(Request)

	eligible map[netsim.NodeID]bool

	// st is the coordinator's run state, as a snapshot records it. History
	// and HistoryOK keep an EWMA of each router's |D_j| across epochs for the
	// history-based test. Hysteresis state (Config.ATRRise > 0 only):
	// ATRScore is the EWMA contribution share of each router toward the
	// active victim and IdentifiedATR marks routers already reported in a
	// request. Lossy-control-channel state: LastEpoch is the last epoch whose
	// report was processed (0 before the first numbered report),
	// LastFireEpoch the epoch of the last request issued, and PendingRefire
	// whether a grown identified set is waiting out the re-fire backoff. The
	// four tables are dense, NodeID-indexed and grown on first use, so
	// steady-state epoch processing allocates nothing.
	st           CoordinatorState
	historyAlpha float64

	// cellScratch is the reusable buffer behind ATR ranking, shareScratch
	// the per-epoch dense share buffer, grown with ATRScore and reused
	// across epochs so a steady-state epoch with no new identification
	// allocates nothing, and atrScratch every request's ATR list.
	cellScratch  []trafficmatrix.Cell
	shareScratch []float64
	atrScratch   []ATR
}

// NewCoordinator creates a coordinator. onPushback fires when an attack is
// detected, and may be nil. The third callback is never called: pushback is
// never withdrawn.
func NewCoordinator(cfg Config, onPushback func(Request), _ func(victim netsim.NodeID)) *Coordinator {
	c := new(Coordinator)
	c.Reset(cfg, onPushback)
	return c
}

// Reset makes c what NewCoordinator(cfg, onPushback, nil) returns, keeping its
// storage: the grown history and score tables, the ranking scratch and the
// eligibility map's buckets, so a coordinator reset for the next run
// allocates nothing in steady state. Call it only once no report of c's last
// run can arrive.
func (c *Coordinator) Reset(cfg Config, onPushback func(Request)) {
	eligible := c.eligible
	clear(eligible)
	if len(cfg.Eligible) > 0 {
		if eligible == nil {
			eligible = make(map[netsim.NodeID]bool, len(cfg.Eligible))
		}
		for _, id := range cfg.Eligible {
			eligible[id] = true
		}
	} else {
		eligible = nil
	}
	if cfg.MinHistoryEpochs <= 0 {
		cfg.MinHistoryEpochs = 2
	}
	if cfg.ATRRise > 0 && cfg.ATRDecay <= 0 {
		cfg.ATRDecay = 0.85
	}
	// Everything not carried over here starts from zero: truncated (not
	// dropped) tables keep their capacity, and growHistory / growScores
	// write every appended slot, so no state can leak from the last run.
	*c = Coordinator{
		cfg:        cfg,
		onPushback: onPushback,
		eligible:   eligible,
		st: CoordinatorState{
			History:       c.st.History[:0],
			HistoryOK:     c.st.HistoryOK[:0],
			ATRScore:      c.st.ATRScore[:0],
			IdentifiedATR: c.st.IdentifiedATR[:0],
		},
		cellScratch:  c.cellScratch[:0],
		shareScratch: c.shareScratch[:0],
		atrScratch:   c.atrScratch[:0],
		historyAlpha: 0.5,
	}
}

// Release drops the coordinator's references to its run — the pushback
// callback and the configuration's eligibility list — so that a coordinator
// kept past its run pins neither. Call it only once no further epoch report
// can arrive; Reset makes it usable again.
func (c *Coordinator) Release() {
	c.onPushback = nil
	c.cfg = Config{}
}

// Active reports whether a pushback request is currently in force.
func (c *Coordinator) Active() bool { return c.st.Active }

// ActiveVictim reports the router currently protected, valid while Active.
func (c *Coordinator) ActiveVictim() netsim.NodeID { return c.st.ActiveVictim }

// Requests reports how many pushback requests have been raised so far.
func (c *Coordinator) Requests() int { return int(c.st.RequestsFired) }

// IdentifiedATRs reports the size of the hysteresis identified set; zero
// unless ATRRise is enabled and pushback is active.
func (c *Coordinator) IdentifiedATRs() int { return int(c.st.Identified) }

// HandleReport is wired as the traffic-matrix monitor's epoch callback. On a
// lossy control channel reports may be missing (numbering gaps) or delivered
// late (epoch at or before one already processed); gaps decay — rather than
// freeze — the hysteresis state and, past the staleness timeout, reset the
// learned baselines, while late duplicates are ignored outright.
func (c *Coordinator) HandleReport(report trafficmatrix.EpochReport) {
	if epoch := int64(report.Epoch); epoch > 0 {
		if c.st.LastEpoch > 0 {
			if epoch <= c.st.LastEpoch {
				// A delayed report overtaken by newer ones: its epoch was
				// already accounted (as a gap or a delivery). Acting on it
				// would roll the detector's view of the world backwards.
				return
			}
			if gap := epoch - c.st.LastEpoch - 1; gap > 0 {
				c.noteReportGap(int(gap))
			}
		}
		c.st.LastEpoch = epoch
	}
	victim, load, threshold, found := c.detectVictim(report)
	c.updateHistory(report, found, victim)
	if c.st.Active {
		c.updateATRScores(report)
		return
	}
	if !found {
		return
	}
	req := Request{
		Epoch:        report.Epoch,
		VictimRouter: victim,
		VictimLoad:   load,
		ATRs:         c.identifyATRs(report, victim, load),
	}
	c.st.Active = true
	c.st.ActiveVictim = victim
	// Nothing reads TriggerLoad or CalmEpochs; they are kept because the
	// snapshot format carries them.
	c.st.TriggerLoad = threshold
	c.st.CalmEpochs = 0
	c.st.RequestsFired++
	c.st.LastFireEpoch = int64(report.Epoch)
	c.seedATRScores(req.ATRs)
	if c.onPushback != nil {
		c.onPushback(req)
	}
}

// noteReportGap accounts gap epochs whose reports never arrived. The ATR
// scores decay through the dark epochs exactly as if the routers had
// contributed nothing (identification stays sticky — scores decay, reported
// routers are not un-reported), and once the outage reaches the staleness
// timeout the |D_j| baselines are dropped for relearning.
func (c *Coordinator) noteReportGap(gap int) {
	if c.cfg.ATRRise > 0 {
		decay := 1.0
		for e := 0; e < gap; e++ {
			decay *= c.cfg.ATRDecay
		}
		for i := range c.st.ATRScore {
			c.st.ATRScore[i] *= decay
		}
	}
	if c.cfg.StaleEpochs > 0 && gap >= c.cfg.StaleEpochs {
		for i := range c.st.History {
			c.st.History[i] = 0
			c.st.HistoryOK[i] = false
		}
		c.st.HistorySeen = 0
	}
}

// seedATRScores initialises the hysteresis state from the triggering epoch's
// identified set. No-op unless hysteresis is enabled.
func (c *Coordinator) seedATRScores(atrs []ATR) {
	if c.cfg.ATRRise <= 0 {
		return
	}
	for _, a := range atrs {
		c.growScores(a.Router)
		c.st.ATRScore[a.Router] = a.Share
		c.st.IdentifiedATR[a.Router] = true
		c.st.Identified++
	}
}

// growScores sizes the dense hysteresis tables to cover id.
func (c *Coordinator) growScores(id netsim.NodeID) {
	for int(id) >= len(c.st.ATRScore) {
		c.st.ATRScore = append(c.st.ATRScore, 0)
		c.st.IdentifiedATR = append(c.st.IdentifiedATR, false)
		c.shareScratch = append(c.shareScratch, 0)
	}
}

// updateATRScores runs one hysteresis step while pushback is active: fold the
// epoch's contribution shares into the per-router scores and, if any eligible
// router's score crossed ATRShare for the first time, re-issue the pushback
// request with the grown identified set. Epochs that identify nothing new
// allocate nothing.
func (c *Coordinator) updateATRScores(report trafficmatrix.EpochReport) {
	if c.cfg.ATRRise <= 0 {
		return
	}
	load := report.DestEstimate(c.st.ActiveVictim)
	c.cellScratch = report.AppendTopSources(c.cellScratch[:0], c.st.ActiveVictim)
	for i := range c.shareScratch {
		c.shareScratch[i] = 0
	}
	for _, cell := range c.cellScratch {
		if cell.Source == c.st.ActiveVictim {
			continue
		}
		c.growScores(cell.Source)
		if load > 0 {
			c.shareScratch[cell.Source] = cell.Packets / load
		}
	}
	rise, decay := c.cfg.ATRRise, c.cfg.ATRDecay
	grew := false
	for i := range c.st.ATRScore {
		score := rise*c.shareScratch[i] + (1-rise)*c.st.ATRScore[i]
		if floor := decay * c.st.ATRScore[i]; floor > score {
			score = floor
		}
		c.st.ATRScore[i] = score
		if score < c.cfg.ATRShare || c.st.IdentifiedATR[i] {
			continue
		}
		id := netsim.NodeID(i)
		if c.eligible != nil && !c.eligible[id] {
			continue
		}
		c.st.IdentifiedATR[i] = true
		c.st.Identified++
		grew = true
	}
	if grew {
		c.st.PendingRefire = true
	}
	if c.st.PendingRefire && c.refireAllowed(report.Epoch) {
		c.st.PendingRefire = false
		c.st.LastFireEpoch = int64(report.Epoch)
		c.fireIdentifiedSet(report.Epoch, load)
	}
}

// refireAllowed applies the re-fire backoff: with no backoff configured (or
// unnumbered reports, as hand-built tests use) re-fires are immediate.
func (c *Coordinator) refireAllowed(epoch int) bool {
	if c.cfg.RefireBackoffEpochs <= 0 || epoch <= 0 || c.st.LastFireEpoch <= 0 {
		return true
	}
	return int64(epoch)-c.st.LastFireEpoch >= int64(c.cfg.RefireBackoffEpochs)
}

// fireIdentifiedSet re-issues the pushback request carrying the full
// identified set, largest current score first. Packets is reconstructed from
// the score and the victim's current load, so it is an EWMA estimate rather
// than a single-epoch a_ij.
func (c *Coordinator) fireIdentifiedSet(epoch int, load float64) {
	atrs := c.atrScratch[:0]
	for i, ok := range c.st.IdentifiedATR {
		if !ok {
			continue
		}
		score := c.st.ATRScore[i]
		atrs = append(atrs, ATR{Router: netsim.NodeID(i), Packets: score * load, Share: score})
	}
	slices.SortFunc(atrs, func(a, b ATR) int {
		switch {
		case a.Share > b.Share:
			return -1
		case a.Share < b.Share:
			return 1
		default:
			return int(a.Router - b.Router)
		}
	})
	c.atrScratch = atrs
	c.st.RequestsFired++
	if c.onPushback != nil {
		c.onPushback(Request{
			Epoch:        epoch,
			VictimRouter: c.st.ActiveVictim,
			VictimLoad:   load,
			ATRs:         atrs,
		})
	}
}

// detectVictim judges the epoch's busiest router, and only it: it is the
// victim when its |D_j| is at least MinVictimLoad and at least HistoryFactor
// times its own EWMA baseline, once MinHistoryEpochs epochs have been seen.
func (c *Coordinator) detectVictim(report trafficmatrix.EpochReport) (victim netsim.NodeID, load, threshold float64, found bool) {
	victim = netsim.NoNode
	for _, id := range report.Routers {
		if dj := report.DestEstimate(id); dj > load {
			victim, load = id, dj
		}
	}
	if victim == netsim.NoNode || load < c.cfg.MinVictimLoad ||
		c.cfg.HistoryFactor <= 0 || c.st.HistorySeen < int64(c.cfg.MinHistoryEpochs) {
		return victim, load, 0, false
	}
	base, ok := c.baseline(victim)
	if !ok || base <= 0 {
		return victim, load, 0, false
	}
	threshold = c.cfg.HistoryFactor * base
	return victim, load, threshold, load >= threshold
}

// baseline returns the EWMA |D_j| baseline for a router, if one exists yet.
func (c *Coordinator) baseline(id netsim.NodeID) (float64, bool) {
	if id < 0 || int(id) >= len(c.st.History) || !c.st.HistoryOK[id] {
		return 0, false
	}
	return c.st.History[id], true
}

// growHistory sizes the dense baseline tables to cover id. They take the
// capacity in one step and then append into it, rather than doubling their
// way up to a 50 000-router domain.
func (c *Coordinator) growHistory(id netsim.NodeID) {
	if n := int(id) + 1; n > len(c.st.History) {
		c.st.History = slices.Grow(c.st.History, n-len(c.st.History))
		c.st.HistoryOK = slices.Grow(c.st.HistoryOK, n-len(c.st.HistoryOK))
	}
	for int(id) >= len(c.st.History) {
		c.st.History = append(c.st.History, 0)
		c.st.HistoryOK = append(c.st.HistoryOK, false)
	}
}

// updateHistory folds the epoch's loads into the per-router EWMA baselines.
// While an attack is detected (or pushback is active) the victim's baseline
// is frozen so the attack itself does not become the new normal.
func (c *Coordinator) updateHistory(report trafficmatrix.EpochReport, found bool, victim netsim.NodeID) {
	c.st.HistorySeen++
	if k := len(report.Routers); k > 0 {
		c.growHistory(report.Routers[k-1]) // ascending: the last ID is the largest
	}
	for _, id := range report.Routers {
		c.growHistory(id)
		if (found && id == victim) || (c.st.Active && id == c.st.ActiveVictim) {
			continue
		}
		dj := report.DestEstimate(id)
		if !c.st.HistoryOK[id] {
			c.st.History[id] = dj
			c.st.HistoryOK[id] = true
			continue
		}
		c.st.History[id] = c.historyAlpha*dj + (1-c.historyAlpha)*c.st.History[id]
	}
}

// identifyATRs ranks source routers by their estimated contribution a_ij to
// the victim and keeps those above the configured share.
func (c *Coordinator) identifyATRs(report trafficmatrix.EpochReport, victim netsim.NodeID, victimLoad float64) []ATR {
	c.cellScratch = report.AppendTopSources(c.cellScratch[:0], victim)
	cells := c.cellScratch
	atrs := c.atrScratch[:0]
	for _, cell := range cells {
		if c.eligible != nil && !c.eligible[cell.Source] {
			continue
		}
		if cell.Source == victim {
			continue
		}
		share := 0.0
		if victimLoad > 0 {
			share = cell.Packets / victimLoad
		}
		if share < c.cfg.ATRShare {
			continue
		}
		atrs = append(atrs, ATR{Router: cell.Source, Packets: cell.Packets, Share: share})
	}
	slices.SortFunc(atrs, func(a, b ATR) int {
		switch {
		case a.Packets > b.Packets:
			return -1
		case a.Packets < b.Packets:
			return 1
		default:
			return 0
		}
	})
	c.atrScratch = atrs
	return atrs
}
