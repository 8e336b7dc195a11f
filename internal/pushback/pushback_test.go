package pushback

import (
	"slices"
	"sort"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/trafficmatrix"
)

// report builds a synthetic epoch report: dests maps router -> |D_j|,
// cells lists a_ij entries. The map is flattened into the report's dense
// NodeID-indexed tables.
func report(epoch int, dests map[netsim.NodeID]float64, cells []trafficmatrix.Cell) trafficmatrix.EpochReport {
	ids := make([]netsim.NodeID, 0, len(dests))
	maxID := netsim.NodeID(-1)
	for id := range dests {
		ids = append(ids, id)
		if id > maxID {
			maxID = id
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dense := make([]float64, maxID+1)
	for id, v := range dests {
		dense[id] = v
	}
	return trafficmatrix.EpochReport{
		Epoch:   epoch,
		Routers: ids,
		DestEst: dense,
		Matrix:  cells,
	}
}

// spike drives c through a calm baseline and then a spike: two epochs in which
// every router of dests carries a tenth of its load, then dests itself with
// cells. A detector whose HistoryFactor is at most 10 and whose
// MinHistoryEpochs is at most 2 judges the spike against that baseline and
// fires on it. spike returns the spike's epoch, so a test can number the
// epochs after it.
func spike(c *Coordinator, dests map[netsim.NodeID]float64, cells []trafficmatrix.Cell) int {
	calm := make(map[netsim.NodeID]float64, len(dests))
	for id, load := range dests {
		calm[id] = load / 10
	}
	c.HandleReport(report(1, calm, nil))
	c.HandleReport(report(2, calm, nil))
	c.HandleReport(report(3, dests, cells))
	return 3
}

// TestDetectsVictimByRelativeLoad pins detection against a router's own
// baseline: router 3 jumping to ten times its usual load is the victim, and
// its contributors are ranked by a_ij, the one below ATRShare left out.
func TestDetectsVictimByRelativeLoad(t *testing.T) {
	var got *Request
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.05}, func(r Request) { got = &r }, nil)

	dests := map[netsim.NodeID]float64{1: 100, 2: 120, 3: 2000}
	cells := []trafficmatrix.Cell{
		{Source: 10, Dest: 3, Packets: 1500},
		{Source: 11, Dest: 3, Packets: 400},
		{Source: 12, Dest: 3, Packets: 20}, // below 5% share
	}
	epoch := spike(c, dests, cells)

	if got == nil {
		t.Fatal("expected a pushback request")
	}
	if got.VictimRouter != 3 || got.Epoch != epoch {
		t.Fatalf("victim = %d at epoch %d, want 3 at %d", got.VictimRouter, got.Epoch, epoch)
	}
	if len(got.ATRs) != 2 {
		t.Fatalf("ATRs = %d, want 2 (the 20-packet source is below share)", len(got.ATRs))
	}
	if got.ATRs[0].Router != 10 || got.ATRs[1].Router != 11 {
		t.Fatalf("ATR ranking wrong: %+v", got.ATRs)
	}
	if got.ATRs[0].Share < 0.7 {
		t.Fatalf("top ATR share = %v, want > 0.7", got.ATRs[0].Share)
	}
	if !c.Active() || c.ActiveVictim() != 3 || c.Requests() != 1 {
		t.Fatal("coordinator state after trigger is wrong")
	}
}

func TestNoTriggerOnBalancedLoad(t *testing.T) {
	fired := false
	c := NewCoordinator(Config{HistoryFactor: 1.5, ATRShare: 0.05}, func(Request) { fired = true }, nil)
	dests := map[netsim.NodeID]float64{1: 100, 2: 110, 3: 120, 4: 130}
	for epoch := 1; epoch <= 5; epoch++ {
		c.HandleReport(report(epoch, dests, nil))
	}
	if fired || c.Active() {
		t.Fatal("steady balanced load must not trigger pushback")
	}
}

// TestAbsoluteThreshold pins that no load is large enough on its own: a
// router is judged against its own baseline only, so nothing fires before
// MinHistoryEpochs epochs, nor on a router that has always been that busy,
// nor on one that has no baseline yet.
func TestAbsoluteThreshold(t *testing.T) {
	fired := 0
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(Request) { fired++ }, nil)
	c.HandleReport(report(1, map[netsim.NodeID]float64{1: 1e9}, nil))
	c.HandleReport(report(2, map[netsim.NodeID]float64{1: 1e9}, nil))
	if fired != 0 {
		t.Fatal("a load with no history must not trigger")
	}
	c.HandleReport(report(3, map[netsim.NodeID]float64{1: 1e9}, nil))
	if fired != 0 {
		t.Fatal("a load that is its router's own baseline must not trigger")
	}
	c.HandleReport(report(4, map[netsim.NodeID]float64{1: 1e9, 2: 1e12}, nil))
	if fired != 0 || c.Active() {
		t.Fatal("a router with no baseline must not trigger, however large its load")
	}
}

func TestEligibleRestriction(t *testing.T) {
	var got *Request
	cfg := Config{HistoryFactor: 2, ATRShare: 0.01, Eligible: []netsim.NodeID{11}}
	c := NewCoordinator(cfg, func(r Request) { got = &r }, nil)
	dests := map[netsim.NodeID]float64{3: 1000}
	cells := []trafficmatrix.Cell{
		{Source: 10, Dest: 3, Packets: 700},
		{Source: 11, Dest: 3, Packets: 250},
	}
	spike(c, dests, cells)
	if got == nil {
		t.Fatal("expected trigger")
	}
	if len(got.ATRs) != 1 || got.ATRs[0].Router != 11 {
		t.Fatalf("eligibility filter failed: %+v", got.ATRs)
	}
}

// TestMaxATRsCap pins that a request is not capped: every router whose share
// of the victim's load reaches ATRShare is identified, largest first.
func TestMaxATRsCap(t *testing.T) {
	var got *Request
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(r Request) { got = &r }, nil)
	dests := map[netsim.NodeID]float64{3: 1000}
	cells := []trafficmatrix.Cell{
		{Source: 12, Dest: 3, Packets: 40},
		{Source: 10, Dest: 3, Packets: 700},
		{Source: 13, Dest: 3, Packets: 5}, // below 1% share
		{Source: 11, Dest: 3, Packets: 250},
	}
	spike(c, dests, cells)
	if got == nil {
		t.Fatal("expected trigger")
	}
	var routers []netsim.NodeID
	for _, a := range got.ATRs {
		routers = append(routers, a.Router)
	}
	if want := []netsim.NodeID{10, 11, 12}; !slices.Equal(routers, want) {
		t.Fatalf("identified %v, want every router above the share, largest first: %v", routers, want)
	}
}

func TestVictimNotListedAsATR(t *testing.T) {
	var got *Request
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(r Request) { got = &r }, nil)
	dests := map[netsim.NodeID]float64{3: 1000}
	cells := []trafficmatrix.Cell{
		{Source: 3, Dest: 3, Packets: 900}, // locally generated, ignore
		{Source: 10, Dest: 3, Packets: 400},
	}
	spike(c, dests, cells)
	if got == nil {
		t.Fatal("expected trigger")
	}
	for _, a := range got.ATRs {
		if a.Router == 3 {
			t.Fatal("victim router must never be its own ATR")
		}
	}
}

// TestWithdrawAfterCalmEpochs pins that pushback is never withdrawn: the
// victim's load falling back to a trickle for ten epochs leaves the request
// in force, fired once.
func TestWithdrawAfterCalmEpochs(t *testing.T) {
	fired := 0
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(Request) { fired++ }, nil)
	epoch := spike(c, map[netsim.NodeID]float64{7: 1000}, nil)
	for e := epoch + 1; e <= epoch+10; e++ {
		c.HandleReport(report(e, map[netsim.NodeID]float64{7: 10}, nil))
	}
	if !c.Active() || c.ActiveVictim() != 7 {
		t.Fatalf("pushback did not stay in force through calm epochs (active=%v victim=%d)", c.Active(), c.ActiveVictim())
	}
	if fired != 1 || c.Requests() != 1 {
		t.Fatalf("fired %d requests (%d counted), want the one", fired, c.Requests())
	}
}

// TestCalmStreakResetsOnRecurringAttack pins that an attack that comes and
// goes causes neither a withdrawal nor a second request.
func TestCalmStreakResetsOnRecurringAttack(t *testing.T) {
	fired := 0
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(Request) { fired++ }, nil)
	epoch := spike(c, map[netsim.NodeID]float64{7: 1000}, nil)
	for e := epoch + 1; e <= epoch+6; e++ {
		load := 100.0 // calm
		if e%2 == 0 {
			load = 1000 // the attack resumes
		}
		c.HandleReport(report(e, map[netsim.NodeID]float64{7: load}, nil))
	}
	if !c.Active() || fired != 1 {
		t.Fatalf("recurring attack: active=%v after %d requests, want active after 1", c.Active(), fired)
	}
}

func TestNoRetriggerWhileActive(t *testing.T) {
	fired := 0
	c := NewCoordinator(Config{HistoryFactor: 2, ATRShare: 0.01}, func(Request) { fired++ }, nil)
	epoch := spike(c, map[netsim.NodeID]float64{7: 1000}, nil)
	for e := epoch + 1; e <= epoch+5; e++ {
		c.HandleReport(report(e, map[netsim.NodeID]float64{7: 1000}, nil))
	}
	if fired != 1 {
		t.Fatalf("pushback fired %d times for one sustained attack, want 1", fired)
	}
}

func TestEmptyReportIsIgnored(t *testing.T) {
	c := NewCoordinator(DefaultConfig(), nil, nil)
	c.HandleReport(report(1, map[netsim.NodeID]float64{}, nil))
	if c.Active() {
		t.Fatal("empty report should not trigger")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HistoryFactor <= 1 {
		t.Fatal("history factor must exceed 1")
	}
	if cfg.ATRShare <= 0 || cfg.ATRShare >= 1 {
		t.Fatal("ATR share must be a fraction")
	}
	if cfg.MinVictimLoad <= 0 {
		t.Fatal("minimum victim load must be positive")
	}
}

func TestHistoryBasedDetection(t *testing.T) {
	var got *Request
	cfg := Config{HistoryFactor: 1.5, MinHistoryEpochs: 2, MinVictimLoad: 50, ATRShare: 0.05}
	c := NewCoordinator(cfg, func(r Request) { got = &r }, nil)

	// Two quiet epochs build the baseline (~1000 pkt/epoch at router 9).
	c.HandleReport(report(1, map[netsim.NodeID]float64{9: 1000, 2: 200}, nil))
	c.HandleReport(report(2, map[netsim.NodeID]float64{9: 1050, 2: 210}, nil))
	if got != nil {
		t.Fatal("steady load must not trigger the history test")
	}
	// A modest fluctuation stays below 1.5x the baseline.
	c.HandleReport(report(3, map[netsim.NodeID]float64{9: 1200, 2: 200}, nil))
	if got != nil {
		t.Fatal("small fluctuation must not trigger")
	}
	// The attack roughly doubles the victim's load.
	cells := []trafficmatrix.Cell{{Source: 4, Dest: 9, Packets: 1500}}
	c.HandleReport(report(4, map[netsim.NodeID]float64{9: 2600, 2: 210}, cells))
	if got == nil {
		t.Fatal("history test should have triggered on the surge")
	}
	if got.VictimRouter != 9 || len(got.ATRs) != 1 || got.ATRs[0].Router != 4 {
		t.Fatalf("unexpected request: %+v", got)
	}
}

// TestHysteresisIdentifiesRotatingGroups walks the rolling-pulse hole the
// hysteresis closes: groups that flood in different epochs must all end up
// identified, and an identified router must stay identified while its sources
// are silent — through the end of the attack too.
func TestHysteresisIdentifiesRotatingGroups(t *testing.T) {
	var last *Request
	cfg := Config{
		HistoryFactor: 2, ATRShare: 0.1,
		ATRRise: 0.5, ATRDecay: 0.85,
		Eligible: []netsim.NodeID{10, 11},
	}
	c := NewCoordinator(cfg, func(r Request) { last = &r }, nil)

	dests := map[netsim.NodeID]float64{3: 1000}

	// Group A (router 10) floods and triggers pushback.
	epoch := spike(c, dests, []trafficmatrix.Cell{{Source: 10, Dest: 3, Packets: 900}})
	if last == nil || len(last.ATRs) != 1 || last.ATRs[0].Router != 10 {
		t.Fatalf("trigger request wrong: %+v", last)
	}
	if c.IdentifiedATRs() != 1 {
		t.Fatalf("identified = %d after trigger, want 1", c.IdentifiedATRs())
	}

	// The baton passes to group B (router 11); router 10 goes quiet. The
	// grown set must be re-issued with BOTH routers, the quiet one ranked
	// first on its decayed score.
	last = nil
	epoch++
	c.HandleReport(report(epoch, dests, []trafficmatrix.Cell{{Source: 11, Dest: 3, Packets: 900}}))
	if last == nil {
		t.Fatal("newly contributing router must re-fire the request")
	}
	if len(last.ATRs) != 2 || last.ATRs[0].Router != 10 || last.ATRs[1].Router != 11 {
		t.Fatalf("grown set wrong: %+v", last.ATRs)
	}
	if last.ATRs[0].Share <= last.ATRs[1].Share {
		t.Fatalf("decayed score %v should still outrank fresh score %v",
			last.ATRs[0].Share, last.ATRs[1].Share)
	}
	if c.IdentifiedATRs() != 2 || c.Requests() != 2 {
		t.Fatalf("identified=%d requests=%d, want 2/2", c.IdentifiedATRs(), c.Requests())
	}

	// Eighteen more epochs: only group B keeps flooding. Router 10's score
	// decays below ATRShare, an ineligible router 12 joins the flood —
	// neither may change the identified set or fire another request.
	last = nil
	for end := epoch + 18; epoch < end; {
		epoch++
		c.HandleReport(report(epoch, dests, []trafficmatrix.Cell{
			{Source: 11, Dest: 3, Packets: 900},
			{Source: 12, Dest: 3, Packets: 900},
		}))
	}
	if last != nil {
		t.Fatalf("no new eligible router, yet a request fired: %+v", last)
	}
	if c.IdentifiedATRs() != 2 || c.Requests() != 2 {
		t.Fatalf("identification must be sticky: identified=%d requests=%d, want 2/2",
			c.IdentifiedATRs(), c.Requests())
	}

	// The attack stops: pushback stays in force and the identified set
	// stays as it is.
	c.HandleReport(report(epoch+1, map[netsim.NodeID]float64{3: 100}, nil))
	c.HandleReport(report(epoch+2, map[netsim.NodeID]float64{3: 100}, nil))
	if !c.Active() || c.IdentifiedATRs() != 2 || c.Requests() != 2 {
		t.Fatalf("after the attack: active=%v identified=%d requests=%d, want true/2/2",
			c.Active(), c.IdentifiedATRs(), c.Requests())
	}
}

// TestHysteresisDisabledReproducesPaper pins the default: with ATRRise zero
// a rotating attack gets exactly the paper's one-shot identification — one
// request naming only the triggering epoch's contributors.
func TestHysteresisDisabledReproducesPaper(t *testing.T) {
	fired := 0
	var last *Request
	cfg := Config{HistoryFactor: 2, ATRShare: 0.1}
	c := NewCoordinator(cfg, func(r Request) { fired++; last = &r }, nil)

	dests := map[netsim.NodeID]float64{3: 1000}
	epoch := spike(c, dests, []trafficmatrix.Cell{{Source: 10, Dest: 3, Packets: 900}})
	for e := epoch + 1; e <= epoch+9; e++ {
		c.HandleReport(report(e, dests, []trafficmatrix.Cell{{Source: 11, Dest: 3, Packets: 900}}))
	}
	if fired != 1 {
		t.Fatalf("paper identification fired %d requests, want the one-shot", fired)
	}
	if len(last.ATRs) != 1 || last.ATRs[0].Router != 10 {
		t.Fatalf("one-shot set wrong: %+v", last.ATRs)
	}
	if c.IdentifiedATRs() != 0 {
		t.Fatal("hysteresis set must stay empty with ATRRise disabled")
	}
}

func TestHistoryMinimumLoadGuard(t *testing.T) {
	fired := false
	cfg := Config{HistoryFactor: 1.5, MinHistoryEpochs: 2, MinVictimLoad: 500, ATRShare: 0.05}
	c := NewCoordinator(cfg, func(Request) { fired = true }, nil)
	c.HandleReport(report(1, map[netsim.NodeID]float64{9: 10}, nil))
	c.HandleReport(report(2, map[netsim.NodeID]float64{9: 10}, nil))
	c.HandleReport(report(3, map[netsim.NodeID]float64{9: 100}, nil))
	if fired {
		t.Fatal("surge on a nearly idle router must not trigger below MinVictimLoad")
	}
}

// TestHistoryFrozenDuringAttack pins that the victim's baseline does not
// absorb the attack: while pushback is active its EWMA stays where the calm
// epochs left it, and every other router's keeps learning.
func TestHistoryFrozenDuringAttack(t *testing.T) {
	cfg := Config{HistoryFactor: 1.5, MinHistoryEpochs: 2, MinVictimLoad: 50, ATRShare: 0.05}
	c := NewCoordinator(cfg, nil, nil)
	c.HandleReport(report(1, map[netsim.NodeID]float64{9: 1000, 2: 100}, nil))
	c.HandleReport(report(2, map[netsim.NodeID]float64{9: 1000, 2: 100}, nil))
	for epoch := 3; epoch <= 6; epoch++ {
		c.HandleReport(report(epoch, map[netsim.NodeID]float64{9: 5000, 2: 300}, nil))
	}
	if !c.Active() || c.ActiveVictim() != 9 {
		t.Fatal("attack should have triggered on router 9")
	}
	if got := c.st.History[9]; got != 1000 {
		t.Fatalf("victim baseline = %v after four attack epochs, want the calm 1000", got)
	}
	if got := c.st.History[2]; got <= 100 {
		t.Fatalf("bystander baseline = %v, want it to follow its load toward 300", got)
	}
}

// TestDetectionJudgesOnlyTheBusiestRouter pins a finding (PAPER.md, Section
// II), measured with DefaultConfig: detection judges the epoch's busiest
// router and no other. Router 3's load rising twentyfold, from 100 to 2 000,
// goes unnoticed for six epochs while router 1 carries a steady 5 000; the
// same spike fires in its first epoch once it exceeds 5 000.
func TestDetectionJudgesOnlyTheBusiestRouter(t *testing.T) {
	run := func(spikeLoad float64) []Request {
		var fired []Request
		c := NewCoordinator(DefaultConfig(), func(r Request) { fired = append(fired, r) }, nil)
		epoch := 1
		for ; epoch <= 4; epoch++ {
			c.HandleReport(report(epoch, map[netsim.NodeID]float64{1: 5000, 3: 100}, nil))
		}
		for end := epoch + 6; epoch < end; epoch++ {
			c.HandleReport(report(epoch, map[netsim.NodeID]float64{1: 5000, 3: spikeLoad}, nil))
		}
		return fired
	}
	if fired := run(2000); len(fired) != 0 {
		t.Fatalf("a spike on a router that is not the busiest fired: %+v", fired)
	}
	fired := run(5001)
	if len(fired) != 1 || fired[0].VictimRouter != 3 || fired[0].Epoch != 5 {
		t.Fatalf("the spike as the busiest router: %+v, want one request for router 3 at epoch 5", fired)
	}
}
