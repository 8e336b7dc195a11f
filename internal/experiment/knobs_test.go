package experiment

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// The knob census: every exported leaf of Scenario — a field that is not
// itself a struct, reached through the nested configs — has exactly one row
// below saying what pins it. A knob no run moves and no row explains is code
// nothing checks; a new knob fails TestKnobCensus until it gets a row, and a
// row outliving its knob fails it too.

// knobKind says what pins a knob.
type knobKind int

const (
	// varied: the runs this repository makes give the knob at least two
	// values — the catalog entries with their Quick and Harden variants,
	// DefaultSearchSpec's points, and the Overrides fields — so goldens,
	// ROBUST rows or the override tests pin what it does.
	varied knobKind = iota + 1
	// paper: a Table II parameter, named in PAPER.md's table.
	paper
	// fixed: every run holds the knob at one value, for the reason given.
	fixed
)

// knob is one census row.
type knob struct {
	kind knobKind
	// why is the reason a fixed knob is fixed, or a numeric knob has no
	// out-of-range value.
	why string
	// bad is one value Scenario.Validate must reject when it is set on
	// DefaultScenario. Every numeric knob names one unless why says why
	// every value is legal; where zero selects a default for every
	// consumer, zero is legal and bad is something else.
	bad any
}

// knobs is the census, keyed by each leaf's dotted path in Scenario.
var knobs = map[string]knob{
	"Name":     {kind: varied},
	"Seed":     {kind: varied, why: "every int64 seeds a run"},
	"Duration": {kind: varied, bad: 0},

	"Topology.Style":          {kind: varied, bad: 99},
	"Topology.NumRouters":     {kind: paper, bad: 1},
	"Topology.NumIngress":     {kind: varied, bad: -1},
	"Topology.ExtraChords":    {kind: varied, bad: -1},
	"Topology.TransitRouters": {kind: varied, bad: -1},
	"Topology.CoreLink.BandwidthBps": {kind: fixed, bad: 0,
		why: "1 Gb/s core links; no run varies the domain's capacity"},
	"Topology.CoreLink.Delay":    {kind: fixed, bad: -1, why: "2 ms per core hop"},
	"Topology.CoreLink.QueueLen": {kind: fixed, bad: 0, why: "1024-packet core queues"},
	"Topology.AccessLink.BandwidthBps": {kind: fixed, bad: 0,
		why: "50 Mb/s access links; no run varies the domain's capacity"},
	"Topology.AccessLink.Delay":    {kind: fixed, bad: -1, why: "1 ms access hops"},
	"Topology.AccessLink.QueueLen": {kind: fixed, bad: 0, why: "256-packet access queues"},
	"Topology.VictimLink.BandwidthBps": {kind: fixed, bad: 0,
		why: "200 Mb/s into the victim; no run varies the domain's capacity"},
	"Topology.VictimLink.Delay":    {kind: fixed, bad: -1, why: "1 ms to the victim"},
	"Topology.VictimLink.QueueLen": {kind: fixed, bad: 0, why: "512-packet victim queue"},
	"Topology.ClientsPerIngress": {kind: fixed, bad: -1,
		why: "four client hosts per ingress carry the legitimate flows; V_t counts flows, not hosts"},
	"Topology.ZombiesPerIngress": {kind: fixed, bad: -1,
		why: "two zombie hosts per ingress carry the attack flows; R and Γ set the attack volume"},
	"Topology.BystanderHosts":   {kind: varied, bad: -1},
	"Topology.ExtraVictims":     {kind: varied, bad: -1},
	"Topology.MultiHomedVictim": {kind: varied},

	"Workload.TotalFlows": {kind: paper, bad: 0},
	"Workload.TCPShare":   {kind: paper, bad: 1.5},
	"Workload.AttackRate": {kind: paper, bad: 0},
	"Workload.LegitRate": {kind: fixed, bad: 0,
		why: "legitimate TCP flows capped at 250 pkt/s, a choice PAPER.md's Table II prose records"},
	"Workload.PacketSize": {kind: fixed, bad: -1000, why: "traffic.DefaultDataSize for every flow"},
	"Workload.RTT": {kind: fixed, bad: 0,
		why: "the TCP sources' pacing estimate, 40 ms like the defenders' MAFIC.RTT"},
	"Workload.AttackPulsePeriod":    {kind: varied, bad: -1},
	"Workload.AttackDutyCycle":      {kind: varied, bad: 3.0},
	"Workload.AttackGroups":         {kind: varied, bad: -1},
	"Workload.AttackRotationPeriod": {kind: varied, bad: -1},
	"Workload.AttackRateMix":        {kind: varied, bad: []float64{0}},
	"Workload.ExtraVictimShare":     {kind: varied, bad: 1.5},
	"Workload.CoremeltShare":        {kind: varied, bad: 1.5},
	"Workload.FlashCrowdFlows":      {kind: varied, bad: -1},
	"Workload.FlashCrowdRate":       {kind: varied, bad: -1},
	"Workload.FlashCrowdStart":      {kind: varied, bad: -1},
	"Workload.FlashCrowdWindow":     {kind: varied, bad: -1},
	"Workload.SpoofIllegalFraction": {kind: fixed, bad: -0.1,
		why: "one spoofing mix (Section III-A's spectrum) throughout: a fifth of attack flows forge unroutable sources"},
	"Workload.SpoofLegitFraction": {kind: fixed, bad: -0.1,
		why: "one spoofing mix throughout: half the attack flows forge bystanders' addresses"},
	"Workload.StartWindow": {kind: fixed, bad: -sim.Second,
		why: "legitimate starts spread over 200 ms so the flows do not synchronise"},
	"Workload.AttackStart": {kind: fixed, bad: -1,
		why: "the attack starts at 0.6 s, after detection's four-epoch baseline (PAPER.md's Table II prose)"},

	"MAFIC.DropProbability": {kind: paper, bad: 1.5},
	"MAFIC.RTT":             {kind: paper, bad: 0},
	"MAFIC.ProbeWindowRTTs": {kind: paper, bad: 0},
	"MAFIC.ProbeDelayRTTs":  {kind: paper, bad: -1},
	"MAFIC.ResponseFactor": {kind: fixed, bad: -1,
		why: "Figure 2's cut: a flow whose arrivals after the probe fall to 70 % of those before it backed off"},
	"MAFIC.MinProbePackets": {kind: fixed, bad: -1,
		why: "a flow with fewer than 4 packets in its probing window is promoted, not judged"},
	"MAFIC.DupAcks": {kind: fixed, bad: -1,
		why: "3 duplicated ACKs, the count that triggers TCP fast retransmit"},
	"MAFIC.ProbeSize": {kind: fixed, bad: -4000, why: "40-byte probes, a bare TCP ACK"},
	"MAFIC.TableCapacity": {kind: fixed, bad: -1,
		why: "unbounded tables; the bounded-eviction path runs only in flowtable's tests and fuzzer (the benchmark's table drill builds its tables with this value, so unbounded too)"},
	"MAFIC.ReprobeAfterIdle":    {kind: varied, bad: -1},
	"MAFIC.CondemnProbes":       {kind: varied, bad: -1},
	"MAFIC.ProbeMemoryCapacity": {kind: varied, bad: -1},

	"Defense": {kind: varied, bad: 0},

	"Monitor.Epoch": {kind: paper, bad: -1},
	"Monitor.Buckets": {kind: fixed, bad: 100,
		why: "0 selects loglog.DefaultBuckets, m = 1024 (PAPER.md, Section II)"},
	"Monitor.Monitored": {kind: fixed, bad: []netsim.NodeID{-1},
		why: "empty selects every router with an attached host, which reports the same as monitoring all"},
	"Monitor.ReportLoss":      {kind: fixed, bad: 0.3, why: "Validate rejects it: Faults declares the control plane"},
	"Monitor.ReportDelayProb": {kind: fixed, bad: 0.3, why: "Validate rejects it: Faults declares the control plane"},
	"Monitor.ReportDelay":     {kind: fixed, bad: sim.Millisecond, why: "Validate rejects it: Faults declares the control plane"},

	"Pushback.HistoryFactor": {kind: fixed, bad: -1,
		why: "detection fires at 1.5 times the busiest router's own baseline"},
	"Pushback.MinHistoryEpochs": {kind: fixed, bad: -1,
		why: "four epochs (400 ms) of baseline before detection may fire, so the legitimate ramp never looks like an attack"},
	"Pushback.MinVictimLoad": {kind: fixed, bad: -1,
		why: "a router below 50 distinct packets per epoch is never the victim"},
	"Pushback.ATRShare": {kind: fixed, bad: 1.5,
		why: "an ingress router contributing 2 % of the victim's load is an ATR"},
	"Pushback.ATRRise":             {kind: varied, bad: 1.5},
	"Pushback.ATRDecay":            {kind: varied, bad: 1.5},
	"Pushback.StaleEpochs":         {kind: varied, bad: -1},
	"Pushback.RefireBackoffEpochs": {kind: varied, bad: -1},
	"Pushback.Eligible": {kind: fixed, bad: []netsim.NodeID{1},
		why: "Validate rejects it: a run makes every ingress router eligible"},

	"DetectionFallback": {kind: varied, bad: -sim.Second},

	"Faults.LinkFlaps":       {kind: varied, bad: []LinkFlap{{RouterA: 1, RouterB: 1, DownFor: 1}}},
	"Faults.RouterCrashes":   {kind: varied, bad: []RouterCrash{{Router: -1}}},
	"Faults.ReportLoss":      {kind: varied, bad: 1.5},
	"Faults.ReportDelayProb": {kind: varied, bad: 1.5},
	"Faults.ReportDelay":     {kind: varied, bad: -1},

	"BinWidth":        {kind: fixed, bad: -1, why: "50 ms bins for the victim bandwidth series behind Fig. 4(b)"},
	"ReductionWindow": {kind: fixed, bad: -1, why: "β compares 100 ms on either side of activation"},
}

// walkLeaves calls leaf for every exported leaf of v, a struct, with its
// dotted path: struct-typed fields are walked into, any other field is a
// leaf.
func walkLeaves(v reflect.Value, prefix string, leaf func(path string, v reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			walkLeaves(v.Field(i), prefix+f.Name+".", leaf)
			continue
		}
		leaf(prefix+f.Name, v.Field(i))
	}
}

// knobValues is, for every leaf, the set of values the runs this repository
// makes give it: each catalog entry with its Quick and Harden variants, each
// point of DefaultSearchSpec under each of its defences, and the scenario of
// an Overrides with every field set.
func knobValues() map[string]map[string]bool {
	var runs []Scenario
	for _, e := range Entries() {
		s := e.Build()
		runs = append(runs, s, Quick(s), Harden(s))
	}
	spec := DefaultSearchSpec()
	for _, def := range spec.Defences {
		for _, p := range spec.Grid() {
			runs = append(runs, spec.scenario(def, p, false))
		}
	}
	runs = append(runs, overridden())
	values := make(map[string]map[string]bool)
	for _, s := range runs {
		walkLeaves(reflect.ValueOf(s), "", func(path string, v reflect.Value) {
			if values[path] == nil {
				values[path] = make(map[string]bool)
			}
			values[path][fmt.Sprint(v.Interface())] = true
		})
	}
	return values
}

// overridden is the scenario an Overrides with every field set builds: each
// pointer field at 7, a value no catalog entry uses, and Defense naming
// another defence. Whether the result validates does not matter here; which
// leaves the overrides reach does.
func overridden() Scenario {
	var o Overrides
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Pointer {
			p := reflect.New(f.Type().Elem())
			p.Elem().Set(reflect.ValueOf(7).Convert(f.Type().Elem()))
			f.Set(p)
		}
	}
	o.Defense = DefenseNone.String()
	s, _ := o.Build()
	return s
}

// tableII returns the rows of PAPER.md's Table II.
func tableII(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Table II")
	if !ok {
		t.Fatal("PAPER.md has no Table II section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return strings.Join(rows, "\n")
}

// TestKnobCensus requires exactly one census row per Scenario leaf and checks
// what each row claims: a varied knob takes two values or more across the
// runs, a paper knob is named in Table II, a fixed knob has a reason and one
// value everywhere. Each row's out-of-range value must fail Validate.
func TestKnobCensus(t *testing.T) {
	t.Parallel()
	values := knobValues()
	table := tableII(t)
	leaves := make(map[string]bool)
	walkLeaves(reflect.ValueOf(Scenario{}), "", func(path string, v reflect.Value) {
		leaves[path] = true
		k, ok := knobs[path]
		if !ok {
			t.Errorf("%s: no census row", path)
			return
		}
		n := len(values[path])
		switch k.kind {
		case varied:
			if n < 2 {
				t.Errorf("%s: row says varied, but every run gives it the same value", path)
			}
		case paper:
			name := path[strings.LastIndex(path, ".")+1:]
			if !strings.Contains(table, "`"+name+"`") && !strings.Contains(table, "."+name+"`") {
				t.Errorf("%s: row says paper, but PAPER.md's Table II does not name %s", path, name)
			}
		case fixed:
			if k.why == "" {
				t.Errorf("%s: row says fixed, with no reason", path)
			}
			if n > 1 {
				t.Errorf("%s: row says fixed, but the runs give it %d values", path, n)
			}
		default:
			t.Errorf("%s: row has no kind", path)
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
			if k.bad == nil && k.why == "" {
				t.Errorf("%s: numeric knob with no out-of-range value and no reason every value is legal", path)
			}
		}
		if k.bad == nil {
			return
		}
		s := DefaultScenario()
		f := reflect.ValueOf(&s).Elem()
		for _, name := range strings.Split(path, ".") {
			f = f.FieldByName(name)
		}
		f.Set(reflect.ValueOf(k.bad).Convert(f.Type()))
		if err := s.Validate(); !errors.Is(err, ErrScenario) {
			t.Errorf("%s = %v: Validate returned %v, want ErrScenario", path, k.bad, err)
		}
	})
	for path := range knobs {
		if !leaves[path] {
			t.Errorf("%s: census row names no Scenario leaf", path)
		}
	}
}
