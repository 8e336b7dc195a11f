package experiment

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/netsim"
	"mafic/internal/trafficmatrix"
)

// manifestVersion pins the wire-format version this manifest was written
// against. Changing any snapshotted struct forces an edit here, and the guard
// requires the two versions to move together: you cannot grow a watched
// struct without consciously deciding whether the snapshot layout changed.
const manifestVersion uint32 = 3

// watchedRoots are where the guard's walk starts: the run bundle and the
// built run, which between them hold every object a run consists of, the
// snapshot, and the payloads the scheduler holds as any, which no field
// names. (A probe cycle's payload, core.probeRecord, is reached through the
// defender that recycles it.)
var watchedRoots = []any{
	runResources{},
	builtRun{},
	checkpoint.Snapshot{},
	netsim.Packet{},
	trafficmatrix.EpochReport{},
}

// watchedTypes returns every struct type of this module reachable from the
// roots through fields, pointers, slices, arrays, maps and channels, by the
// guard's key for it: the package name and the type name, without a generic
// type's arguments. Interface and function values are not followed; what a
// run holds behind one is reached through the field that owns it.
func watchedTypes() map[string][]reflect.Type {
	watched := make(map[string][]reflect.Type)
	visited := make(map[reflect.Type]bool)
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		switch rt.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(rt.Elem())
		case reflect.Map:
			walk(rt.Key())
			walk(rt.Elem())
		case reflect.Struct:
			if visited[rt] || !strings.HasPrefix(rt.PkgPath(), "mafic/") {
				return
			}
			visited[rt] = true
			name, _, _ := strings.Cut(rt.Name(), "[")
			key := rt.PkgPath()[strings.LastIndex(rt.PkgPath(), "/")+1:] + "." + name
			watched[key] = append(watched[key], rt)
			for i := 0; i < rt.NumField(); i++ {
				walk(rt.Field(i).Type)
			}
		}
	}
	for _, v := range watchedRoots {
		walk(reflect.TypeOf(v))
	}
	return watched
}

// fieldManifest pins the exact field list of every watched struct. A field
// added, removed or renamed anywhere in the live-state surface fails the
// guard until this manifest — and, when the snapshot layout is affected,
// SnapshotVersion — is updated deliberately. The test failure message prints
// the corrected entry to paste here.
var fieldManifest = map[string][]string{
	"baseline.Dropper":               {"observer", "probability", "rng", "router", "st"}, // st: the DropperState row, held as it travels
	"baseline.DropperState":          {"Active", "Stats", "VictimIP"},
	"baseline.Stats":                 {"Dropped", "Examined", "Forwarded"},
	"checkpoint.EventState":          {"At", "Index", "Kind", "Packet", "Probe", "Report", "Seq"},
	"checkpoint.NodeState":           {"H", "ID", "R", "Router"},
	"checkpoint.ProbeRec":            {"Def", "State"},
	"checkpoint.RunFlags":            {"ATRCount", "Activated", "ActivationSeconds", "DetectedByPushback"},
	"checkpoint.Snapshot":            {"BuildSeq", "Collector", "Coordinator", "DefKind", "Defenders", "Droppers", "Events", "Flags", "Flows", "Links", "Monitor", "Network", "NextSeq", "Nodes", "Now", "ProbeRecs", "Processed", "Scenario", "Streams", "Victims", "scratch"}, // scratch: Encode's output scratch, not on the wire
	"checkpoint.StreamState":         {"Draws", "Seed"},
	"checkpoint.codec":               {"dec", "r", "w"},                                                                                                                                                                                         // Encode's scratch, held in Snapshot.scratch: not on the wire
	"checkpoint.reader":              {"b", "err", "off"},                                                                                                                                                                                       // Decode's cursor over one section
	"checkpoint.writer":              {"b"},                                                                                                                                                                                                     // one pass into one buffer: no counting mode
	"core.Config":                    {"CondemnProbes", "DropProbability", "DupAcks", "MinProbePackets", "ProbeDelayRTTs", "ProbeMemoryCapacity", "ProbeSize", "ProbeWindowRTTs", "RTT", "ReprobeAfterIdle", "ResponseFactor", "TableCapacity"}, // from the scenario: rebuilt
	"core.Defender":                  {"active", "cfg", "observer", "probeChunks", "probeFree", "probeMemory", "probeSend", "probeSeqs", "rng", "router", "stats", "tables", "victimIP", "windowEnd"},
	"core.DefenderState":             {"Active", "ProbeMemory", "ProbeSeqs", "Stats", "Tables", "VictimIP"},
	"core.ProbeMemoryEntry":          {"Count", "LabelHash"},
	"core.ProbeRecordState":          {"EntryHash", "Label", "Live", "Proto", "Seq"},
	"core.Stats":                     {"Dropped", "DroppedIllegal", "DroppedPDT", "DroppedProbing", "Examined", "FlowsCondemned", "FlowsIllegal", "FlowsNice", "FlowsProbed", "FlowsRepeatCondemned", "FlowsReprobed", "Forwarded", "ProbesSent"},
	"core.probeRecord":               {"entry", "gen", "label", "next", "proto", "seq"},
	"core.probeSender":               {"d"},                                                                          // the defender's probe-injection handler identity, registered by capture
	"core.windowCloser":              {"d"},                                                                          // the defender's window-close handler identity, registered by capture
	"experiment.FaultSpec":           {"LinkFlaps", "ReportDelay", "ReportDelayProb", "ReportLoss", "RouterCrashes"}, // the scenario and what it holds travel as its JSON
	"experiment.LinkFlap":            {"Count", "DownFor", "Period", "RouterA", "RouterB", "Start"},
	"experiment.Result":              {"ATRCount", "Accuracy", "Activated", "ActivationSeconds", "AttackFlowsForgiven", "AttackRate", "Counts", "Defense", "DefenseStats", "DetectedByPushback", "EventsProcessed", "FalseNegativeRate", "FalsePositiveRate", "FlowsProbed", "LegitFlowsCondemned", "LegitimateDropRate", "Name", "Pd", "RouteBytes", "RouteEntries", "Routers", "Series", "TCPShare", "TrafficReduction", "Volume"}, // filled by finish; only the activation flags travel, as RunFlags
	"experiment.RouterCrash":         {"CrashAt", "RestoreAt", "Router"},
	"experiment.Scenario":            {"BinWidth", "Defense", "DetectionFallback", "Duration", "Faults", "MAFIC", "Monitor", "Name", "Pushback", "ReductionWindow", "Seed", "Topology", "Workload"},
	"experiment.builtRun":            {"buildSeq", "collector", "domain", "linked", "registered", "res", "result", "s"},                                                                                                                      // linked, registered: whether the bundle's capture registry holds this run's objects; buildSeq travels as Snapshot.BuildSeq
	"experiment.captureSession":      {"handlers", "links", "probeIdx", "probes", "reports", "run", "snap"},                                                                                                                                  // the bundle's checkpoint storage around its one Snapshot, which captures refill and resumes decode into; events go straight into snap.Events, unsorted
	"experiment.handlerRole":         {"index", "kind", "run"},                                                                                                                                                                               // the capture registry's value: which event kind and owner a handler is, for which registration
	"experiment.runResources":        {"arena", "atrIDs", "collector", "coordinator", "droppers", "ingressIDs", "mafic", "monitor", "onBaselineDrop", "onMAFICDrop", "onPushback", "onReport", "rng", "run", "sched", "session", "workload"}, // the recycled bundle: every object it holds has its own row; atrIDs: scratch of the pushback callback; onBaselineDrop, onMAFICDrop, onPushback, onReport: callbacks bound once to the bundle's objects
	"flowtable.Entry":                {"BaselineCount", "Dropped", "FirstSeen", "Gen", "LabelHash", "LastSeen", "Packets", "ProbeDeadline", "ProbeStart", "ResponseCount", "State"},
	"flowtable.Tables":               {"capacity", "evictions", "free", "index", "scratch", "sizes", "slab", "transitions"}, // scratch: ForEachEntry's sort buffer, capture scratch with no run state
	"flowtable.TablesState":          {"Entries", "Evictions", "Transitions"},
	"loglog.Pair":                    {"active", "shadow"},
	"loglog.PairState":               {"Active", "Shadow"},
	"loglog.Sketch":                  {"adds", "buckets", "m", "p"},
	"loglog.SketchState":             {"Adds", "Buckets"},
	"metrics.BandwidthPoint":         {"AttackPackets", "Bytes", "LegitPackets", "Time"},
	"metrics.Collector":              {"binWidth", "hooks", "st", "tap", "victimHost"}, // st: the CollectorState row, held as it travels; tap, hooks, victimHost: wiring the build installs
	"metrics.CollectorState":         {"Activated", "ActivationAt", "Bins", "Counts"},
	"metrics.Counts":                 {"ATRAttackPost", "ATRAttackPre", "ATRLegitPost", "ATRLegitPre", "DropAttack", "DropAttackPDT", "DropLegitIllegal", "DropLegitPDT", "DropLegitProbing", "FaultDrops", "QueueDrops", "VictimAttack", "VictimAttackPre", "VictimLegit", "VictimLegitPre"},
	"metrics.arrivalTap":             {"collector", "victimIP"}, // wiring the build installs
	"netsim.FlowLabel":               {"DstIP", "DstPort", "SrcIP", "SrcPort"},
	"netsim.Hooks":                   {"OnDeliver", "OnFaultDrop", "OnFilterDrop", "OnQueueDrop", "OnUnroutable"},                                                  // observer callbacks the build installs
	"netsim.Host":                    {"accessRouter", "defaultHandler", "homeCount", "homeLinks", "homeRouters", "id", "ips", "nHandlers", "net", "st", "uplink"}, // st: the HostState row, held as it travels; uplink: derived from the links the build connects
	"netsim.HostState":               {"Received", "Sent"},
	"netsim.Link":                    {"from", "to", "x"},                                                                                                                                                                                                                                                                                                                                                                                       // x: the link's run state, carved by the first write; until then its configuration's idle record, which reads as the zero LinkState
	"netsim.linkRun":                 {"cfg", "inTail", "st", "txCur"},                                                                                                                                                                                                                                                                                                                                                                          // cfg: from the scenario, rebuilt; st: the LinkState row, held as it travels; inTail, txCur: derived on restore from the link's pending arrival events (RestoreInFlight), not on the wire
	"netsim.LinkConfig":              {"BandwidthBps", "Delay", "QueueLen"},                                                                                                                                                                                                                                                                                                                                                                     // from the scenario: rebuilt
	"netsim.LinkState":               {"Down", "Dropped", "FaultDrops", "NextFree", "Queued", "Sent"},                                                                                                                                                                                                                                                                                                                                           // Queued: travels, but restore keeps the rebuilt link's count and checks the recount against it
	"netsim.Network":                 {"adj", "bfsQueue", "cfgSlab", "colEntries", "colSlab", "cols", "colsMaterialized", "downLinks", "downRouters", "faultDrops", "filterSlab", "handlers", "hooks", "hostSlab", "idleRouter", "ipOwner", "ipSlab", "lastCfg", "linkCfgs", "linkRuns", "linkSlab", "links", "nextPktID", "nodes", "pktFree", "pktSlab", "rng", "routeCols", "routerRuns", "routerSlab", "scheduler", "sparse", "topoVersion"}, // the ten slab fields (chunk list plus carve cursor each): storage Reset rewinds for the next build; linkRuns and routerRuns back the run state of the links and routers that have one, which travels as their rows, and the other eight hold no run state; idleRouter: the zero record every other router reads, never written; adj: the rows the build makes; bfsQueue: the route BFS's scratch; linkCfgs, lastCfg: the build's index of cfgSlab; routeCols, cols: rematerialized on restore from NetworkState.RouteDests
	"netsim.NetworkState":            {"FaultDrops", "NextPktID", "RouteDests", "TopoVersion"},
	"netsim.Packet":                  {"FlowID", "Hops", "ID", "Kind", "Label", "Malicious", "Proto", "SentAt", "Seq", "Size", "dstNode", "dstNodeOK", "flowHash", "freed", "hashOK", "inNext", "pooled", "txDone", "txSeq"}, // inNext, txDone, txSeq: derived on restore from the packet's own arrival event (At - Delay, Seq), not on the wire
	"netsim.PacketState":             {"FlowID", "Hops", "ID", "Kind", "Label", "Malicious", "Proto", "SentAt", "Seq", "Size"},
	"netsim.Router":                  {"down", "id", "x"},                                      // down: the RouterState row's flag, held as it travels; x: the router's record, carved by a filter or the first count, until then the network's idleRouter
	"netsim.routerRun":               {"dropped", "faultDrops", "filters", "forwarded", "net"}, // the counters: RouterState's, assembled into the row by CheckpointState; filters: the chain the build attaches
	"netsim.RouterState":             {"Down", "Dropped", "FaultDrops", "Forwarded"},
	"netsim.adjEntry":                {"refs", "to"},                                                                                                                              // the adjacency the build makes; refs packs the link id and the back position
	"netsim.sharedLinkConfig":        {"LinkConfig", "idle", "net"},                                                                                                               // from the scenario: rebuilt; idle: the zero run state of every link without one, never written
	"netsim.handlerKey":              {"host", "label"},                                                                                                                           // a host's handler table key, filled by the build
	"netsim.slab":                    {"chunks", "cur", "used"},                                                                                                                   // chunk list plus carve cursor: storage Reset rewinds for the next build, no run state
	"pushback.ATR":                   {"Packets", "Router", "Share"},                                                                                                              // a request's entry, in the coordinator's request buffer
	"pushback.Config":                {"ATRDecay", "ATRRise", "ATRShare", "Eligible", "HistoryFactor", "MinHistoryEpochs", "MinVictimLoad", "RefireBackoffEpochs", "StaleEpochs"}, // from the scenario: rebuilt
	"pushback.Coordinator":           {"atrScratch", "cellScratch", "cfg", "eligible", "historyAlpha", "onPushback", "shareScratch", "st"},                                        // st: the CoordinatorState row, held as it travels; atrScratch: the request buffer, valid only during a callback
	"pushback.CoordinatorState":      {"ATRScore", "Active", "ActiveVictim", "CalmEpochs", "History", "HistoryOK", "HistorySeen", "Identified", "IdentifiedATR", "LastEpoch", "LastFireEpoch", "PendingRefire", "RequestsFired", "TriggerLoad"},
	"sim.EventRef":                   {"gen", "idx", "s"}, // a handle to a pending event; restore re-binds the live ones
	"sim.RNG":                        {"cs", "r", "reg"},
	"sim.Scheduler":                  {"cal", "events", "freeHead", "horizon", "now", "processed", "seq", "stopped"},                                                                      // horizon: set by RestoreClock to NextSeq, where it rests between RunUntil calls; not on the wire
	"sim.calNode":                    {"at", "next", "seq"},                                                                                                                               // calendar entry: queue geometry, rebuilt by re-inserting the pending events
	"sim.calendarQueue":              {"buckets", "count", "cur", "curTop", "gapPops", "gapSum", "havePop", "lastPopAt", "mask", "nodes", "popsSinceRetune", "scratch", "shift", "width"}, // queue geometry and its tuning, not on the wire: it may differ after a restore, and dispatch order does not depend on it
	"sim.countingSource":             {"draws", "seed", "src"},
	"sim.event":                      {"ah", "arg", "at", "gen", "nextFree", "seq", "state"},
	"sim.rngRegistry":                {"streams"},                                                                                                                                                                                                    // every stream of the run's root; each one's (seed, draws) travels as a StreamState; the backing past len: streams an earlier run forked, which the next forks reseed
	"sim.timedEnt":                   {"at", "idx", "seq"},                                                                                                                                                                                           // calendar entry: queue geometry, rebuilt by re-inserting the pending events
	"topology.Arena":                 {"domain", "net"},                                                                                                                                                                                              // net, domain: the network and the Domain every Build resets and rebuilds; what they carry of a run is netsim.Network's and topology.Domain's rows
	"topology.Config":                {"AccessLink", "BystanderHosts", "ClientsPerIngress", "CoreLink", "ExtraChords", "ExtraVictims", "MultiHomedVictim", "NumIngress", "NumRouters", "Style", "TransitRouters", "VictimLink", "ZombiesPerIngress"}, // from the scenario: rebuilt
	"topology.Domain":                {"Bystanders", "Clients", "ExtraVictims", "Ingress", "LastHop", "Net", "Routers", "Victim", "VictimHomes", "Zombies"},
	"traffic.FlowState":              {"Acked", "Bursts", "Cwnd", "DupAcks", "FastRetx", "InBurst", "Kind", "LastAckAt", "LastAcked", "ProbeSeen", "Running", "Seq", "Sent", "Ssthresh", "Timeouts"}, // Kind: set by Workload.Reset, compared on restore
	"traffic.PacedSource":            {"cfg", "gateEvent", "host", "id", "label", "labelHash", "net", "open", "rng", "sendEvent", "shut", "st"},                                                      // st: the FlowState row, held as it travels; cfg: the pacing value, rebuilt by Workload.Reset
	"traffic.TCPConfig":              {"MaxRate", "PacketSize", "RTT"},                                                                                                                               // from the scenario: rebuilt
	"traffic.TCPSource":              {"cfg", "host", "id", "label", "labelHash", "net", "reverseFn", "sendEvent", "st"},                                                                             // st: the FlowState row, held as it travels
	"traffic.VictimServer":           {"ackSize", "host", "net", "recv", "st"},                                                                                                                       // st: the VictimServerState row, held as it travels; recv: its handler, bound once
	"traffic.VictimServerState":      {"AcksGenerated", "Received", "ReceivedBad", "ReceivedGood"},
	"traffic.Workload":               {"Attack", "ExtraServers", "Flash", "Flows", "Legitimate", "Victim", "paced", "servers", "tcp"}, // paced, tcp, servers: every sender and server a build has made, which Reset reuses by position; the run's are the ones Flows, Victim and ExtraServers list
	"traffic.WorkloadSpec":           {"AttackDutyCycle", "AttackGroups", "AttackPulsePeriod", "AttackRate", "AttackRateMix", "AttackRotationPeriod", "AttackStart", "CoremeltShare", "ExtraVictimShare", "FlashCrowdFlows", "FlashCrowdRate", "FlashCrowdStart", "FlashCrowdWindow", "LegitRate", "PacketSize", "RTT", "SpoofIllegalFraction", "SpoofLegitFraction", "StartWindow", "TCPShare", "TotalFlows"},
	"traffic.gateOpen":               {"s"},
	"traffic.gateShut":               {"s"},
	"traffic.pacing":                 {"every", "offset", "onFor", "rate", "size"}, // an attack sender's configuration, rebuilt by Workload.Reset
	"trafficmatrix.Cell":             {"Dest", "Packets", "Source"},
	"trafficmatrix.Counter":          {"buckets", "dest", "destPkts", "router", "source", "sourcePkts", "transit"},
	"trafficmatrix.CounterState":     {"Dest", "DestPkts", "Source", "SourcePkts", "Transit"},
	"trafficmatrix.EpochReport":      {"DestEst", "End", "Epoch", "Matrix", "Routers", "SourceEst", "Start", "gen", "live"}, // live, gen: set only in a live report, which does not outlive its callback; a report in flight is an owned Clone with both zero
	"trafficmatrix.EpochReportState": {"DestEst", "End", "Epoch", "Matrix", "Routers", "SourceEst", "Start"},
	"trafficmatrix.Monitor":          {"counters", "ctrlRNG", "delayProb", "dstEst", "epoch", "epochIndex", "epochStart", "frozen", "gen", "late", "nbScratch", "onReport", "reportDelay", "reportLoss", "routerIDs", "running", "sched", "sketchSlab", "spare", "srcEst", "stats", "stop"}, // gen, frozen: which epoch the estimate tables hold, dead between epochs like the tables; stats: work counters, in no Result; late, spare: the delayed reports the monitor has made, storage (one in flight travels as an EvMonitorLate event's Report)
	"trafficmatrix.MonitorConfig":    {"Buckets", "Epoch", "Monitored", "ReportDelay", "ReportDelayProb", "ReportLoss"},                                                                                                                                                                     // from the scenario: rebuilt
	"trafficmatrix.MonitorState":     {"Counters", "EpochIndex", "EpochStart", "Running", "Stop"},
	"trafficmatrix.MonitorStats":     {"Columns", "Epochs", "Estimates", "Unions"}, // work counters, in no Result
}

// TestStateCoverageGuard fails whenever a watched struct's field set drifts
// from the pinned manifest, forcing every new piece of live state through an
// explicit decision: serialize it, prove it rebuild-covered, or exempt it. The
// watched set is derived, not listed, so a struct a run comes to hold is
// watched from the moment it is reachable.
func TestStateCoverageGuard(t *testing.T) {
	t.Parallel()
	if manifestVersion != checkpoint.SnapshotVersion {
		t.Fatalf("manifest written for snapshot version %d, code is at %d — re-audit the manifest after a format change",
			manifestVersion, checkpoint.SnapshotVersion)
	}
	watched := watchedTypes()
	for key, types := range watched {
		for _, rt := range types {
			got := make([]string, 0, rt.NumField())
			for i := 0; i < rt.NumField(); i++ {
				got = append(got, rt.Field(i).Name)
			}
			sort.Strings(got)
			want, ok := fieldManifest[key]
			if !ok {
				t.Errorf("unpinned type %s — decide snapshot coverage for every field, bump SnapshotVersion if the wire format changed, then add:\n\t%s",
					key, manifestEntry(key, got))
				break
			}
			want = append([]string(nil), want...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fields of %s drifted from the manifest.\n  pinned: %v\n  actual: %v\nDecide snapshot coverage for the changed fields, bump SnapshotVersion if the wire format changed, then update the entry to:\n\t%s",
					rt, want, got, manifestEntry(key, got))
			}
		}
	}
	for key := range fieldManifest {
		if _, ok := watched[key]; !ok {
			t.Errorf("manifest pins %s but no watched root reaches it — remove the stale entry", key)
		}
	}
}

func manifestEntry(key string, fields []string) string {
	quoted := make([]string, len(fields))
	for i, f := range fields {
		quoted[i] = fmt.Sprintf("%q", f)
	}
	return fmt.Sprintf("%q: {%s},", key, strings.Join(quoted, ", "))
}
