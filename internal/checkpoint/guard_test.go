package checkpoint

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/loglog"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/pushback"
	"mafic/internal/sim"
	"mafic/internal/topology"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// manifestVersion pins the wire-format version this manifest was written
// against. Changing any snapshotted struct forces an edit here, and the guard
// requires the two versions to move together: you cannot grow a watched
// struct without consciously deciding whether the snapshot layout changed.
const manifestVersion uint32 = 3

// watchedPackages collects every package's checkpoint-watched types.
var watchedPackages = []struct {
	name  string
	types []any
}{
	{"sim", sim.CheckpointTypes},
	{"netsim", netsim.CheckpointTypes},
	{"loglog", loglog.CheckpointTypes},
	{"flowtable", flowtable.CheckpointTypes},
	{"core", core.CheckpointTypes},
	{"trafficmatrix", trafficmatrix.CheckpointTypes},
	{"pushback", pushback.CheckpointTypes},
	{"metrics", metrics.CheckpointTypes},
	{"traffic", traffic.CheckpointTypes},
	{"baseline", baseline.CheckpointTypes},
	{"topology", topology.CheckpointTypes},
	{"checkpoint", CheckpointTypes},
}

// fieldManifest pins the exact field list of every watched struct. A field
// added, removed or renamed anywhere in the live-state surface fails the
// guard until this manifest — and, when the snapshot layout is affected,
// SnapshotVersion — is updated deliberately. The test failure message prints
// the corrected entry to paste here.
var fieldManifest = map[string][]string{
	"baseline.Dropper":          {"observer", "probability", "rng", "router", "st"}, // st: the DropperState row, held as it travels
	"baseline.DropperState":     {"Active", "Stats", "VictimIP"},
	"baseline.Stats":            {"Dropped", "Examined", "Forwarded"},
	"checkpoint.EventState":     {"At", "Index", "Kind", "Packet", "Probe", "Report", "Seq"},
	"checkpoint.NodeState":      {"H", "ID", "R", "Router"},
	"checkpoint.ProbeRec":       {"Def", "State"},
	"checkpoint.RunFlags":       {"ATRCount", "Activated", "ActivationSeconds", "DetectedByPushback"},
	"checkpoint.Snapshot":       {"BuildSeq", "Collector", "Coordinator", "DefKind", "Defenders", "Droppers", "Events", "Flags", "Flows", "Links", "Monitor", "Network", "NextSeq", "Nodes", "Now", "ProbeRecs", "Processed", "Scenario", "Streams", "Victims", "scratch"}, // scratch: Encode's output scratch, not on the wire
	"checkpoint.Session":        {"World", "builtFor", "handlers", "links", "probeIdx", "reports", "snap"},                                                                                                                                                                 // capture scratch around the one Snapshot; events go straight into snap.Events, unsorted
	"checkpoint.StreamState":    {"Draws", "Seed"},
	"checkpoint.World":          {"Baseline", "BuildSeq", "Collector", "Coordinator", "Flags", "MAFIC", "Monitor", "Net", "RNG", "Sched", "Workload"},
	"checkpoint.writer":         {"b"}, // one pass into one buffer: no counting mode
	"core.Defender":             {"active", "cfg", "observer", "probeChunks", "probeFree", "probeMemory", "probeSend", "probeSeqs", "rng", "router", "stats", "tables", "victimIP", "windowEnd"},
	"core.Stats":                {"Dropped", "DroppedIllegal", "DroppedPDT", "DroppedProbing", "Examined", "FlowsCondemned", "FlowsIllegal", "FlowsNice", "FlowsProbed", "FlowsRepeatCondemned", "FlowsReprobed", "Forwarded", "ProbesSent"},
	"core.probeRecord":          {"entry", "gen", "label", "next", "proto", "seq"},
	"flowtable.Entry":           {"BaselineCount", "Dropped", "FirstSeen", "Gen", "LabelHash", "LastSeen", "Packets", "ProbeDeadline", "ProbeStart", "ResponseCount", "State"},
	"flowtable.Tables":          {"capacity", "evictions", "free", "hashScratch", "nft", "pdt", "sft", "slab", "transitions"}, // hashScratch: ForEachEntry's sort buffer, capture scratch with no run state
	"loglog.Pair":               {"active", "shadow"},
	"loglog.Sketch":             {"adds", "buckets", "m", "p"},
	"metrics.BandwidthPoint":    {"AttackPackets", "Bytes", "LegitPackets", "Time"},
	"metrics.Collector":         {"binWidth", "st", "tap"}, // st: the CollectorState row, held as it travels
	"metrics.CollectorState":    {"Activated", "ActivationAt", "Bins", "Counts"},
	"metrics.Counts":            {"ATRAttackPost", "ATRAttackPre", "ATRLegitPost", "ATRLegitPre", "DropAttack", "DropAttackPDT", "DropLegitIllegal", "DropLegitPDT", "DropLegitProbing", "FaultDrops", "QueueDrops", "VictimAttack", "VictimAttackPre", "VictimLegit", "VictimLegitPre"},
	"netsim.Host":               {"accessRouter", "defaultHandler", "homeCount", "homeLinks", "homeRouters", "id", "ips", "nHandlers", "name", "net", "st", "uplink"}, // st: the HostState row, held as it travels; uplink: derived from the links the build connects
	"netsim.HostState":          {"Received", "Sent"},
	"netsim.Link":               {"cfg", "from", "inTail", "net", "st", "to", "txCur"},                                                                                                                                                                                                                                                                             // st: the LinkState row, held as it travels; inTail, txCur: derived on restore from the link's pending arrival events (RestoreInFlight), not on the wire
	"netsim.LinkState":          {"Down", "Dropped", "FaultDrops", "NextFree", "Queued", "Sent"},                                                                                                                                                                                                                                                                   // Queued: travels, but restore keeps the rebuilt link's count and checks the recount against it
	"netsim.Network":            {"adjEntrySlab", "colEntries", "colsMaterialized", "downLinks", "downRouters", "faultDrops", "filterSlab", "handlers", "hooks", "hostSlab", "ipOwner", "ipSlab", "linkSlab", "links", "nextPktID", "nodes", "pktFree", "pktSlab", "resolver", "rng", "routeCols", "routerSlab", "scheduler", "sizeHint", "sparse", "topoVersion"}, // the seven slab fields (chunk list plus carve cursor each): storage Reset rewinds for the next build, no run state
	"netsim.Packet":             {"FlowID", "Hops", "ID", "Kind", "Label", "Malicious", "Proto", "SentAt", "Seq", "Size", "dstNode", "dstNodeOK", "flowHash", "freed", "hashOK", "inNext", "pooled", "txDone", "txSeq"},                                                                                                                                            // inNext, txDone, txSeq: derived on restore from the packet's own arrival event (At - Delay, Seq), not on the wire
	"netsim.Router":             {"filters", "id", "name", "net", "st"},                                                                                                                                                                                                                                                                                            // st: the RouterState row, held as it travels
	"netsim.RouterState":        {"Down", "Dropped", "FaultDrops", "Forwarded"},
	"pushback.ATR":              {"Packets", "Router", "Share"},
	"pushback.Coordinator":      {"cellScratch", "cfg", "eligible", "historyAlpha", "onPushback", "shareScratch", "st"}, // st: the CoordinatorState row, held as it travels
	"pushback.CoordinatorState": {"ATRScore", "Active", "ActiveVictim", "CalmEpochs", "History", "HistoryOK", "HistorySeen", "Identified", "IdentifiedATR", "LastEpoch", "LastFireEpoch", "PendingRefire", "RequestsFired", "TriggerLoad"},
	"pushback.Request":          {"ATRs", "Epoch", "VictimLoad", "VictimRouter"},
	"sim.RNG":                   {"cs", "r", "reg"},
	"sim.Scheduler":             {"cal", "events", "freeHead", "horizon", "now", "processed", "seq", "stopped"}, // horizon: set by RestoreClock to NextSeq, where it rests between RunUntil calls; not on the wire
	"sim.countingSource":        {"draws", "seed", "src"},
	"sim.event":                 {"ah", "arg", "at", "fn", "gen", "h", "nextFree", "seq", "state"},
	"topology.Arena":            {"bystanders", "clients", "extraVictims", "ingress", "ingressOf", "lazy", "names", "net", "routers", "victimHomes", "zombies"}, // net: the network every Build resets and rebuilds; what it carries of a run is netsim.Network's row
	"topology.Domain":           {"Bystanders", "Clients", "ExtraVictims", "Ingress", "LastHop", "Net", "Routers", "Victim", "VictimHomes", "Zombies", "ingressOf"},
	"topology.lazyRouter":       {"carved", "colFree", "handed", "net", "rs", "seenVersion", "width"},
	"topology.nameCache":        {"bystanders", "clients", "routers", "victims", "zombies"},
	"topology.routeScratch":     {"back", "offsets", "queue", "seen", "targets"},
	"traffic.FlowState":         {"Acked", "Bursts", "Cwnd", "DupAcks", "FastRetx", "InBurst", "Kind", "LastAckAt", "LastAcked", "ProbeSeen", "Running", "Seq", "Sent", "Ssthresh", "Timeouts"}, // Kind: set by the constructor, compared on restore
	"traffic.PacedSource":       {"cfg", "gateEvent", "host", "id", "label", "labelHash", "net", "open", "rng", "sendEvent", "shut", "st"},                                                      // st: the FlowState row, held as it travels; cfg: the pacing value, rebuilt by the constructor
	"traffic.TCPSource":         {"cfg", "host", "id", "label", "labelHash", "net", "packetSize", "reverseFn", "sendEvent", "st"},                                                               // st: the FlowState row, held as it travels
	"traffic.VictimServer":      {"ackSize", "host", "net", "st"},                                                                                                                               // st: the VictimServerState row, held as it travels
	"traffic.VictimServerState": {"AcksGenerated", "Received", "ReceivedBad", "ReceivedGood"},
	"traffic.Workload":          {"Attack", "ExtraServers", "Flash", "Flows", "Legitimate", "Victim", "paced", "tcp"}, // paced, tcp: every sender a build has made, which Reset reuses by position; the run's are the ones Flows lists
	"traffic.gateOpen":          {"s"},
	"traffic.gateShut":          {"s"},
	"trafficmatrix.Cell":        {"Dest", "Packets", "Source"},
	"trafficmatrix.Counter":     {"buckets", "dest", "destPkts", "router", "source", "sourcePkts", "transit"},
	"trafficmatrix.EpochReport": {"DestEst", "End", "Epoch", "Matrix", "Routers", "SourceEst", "Start", "gen", "live"},                                                                                                                                                               // live, gen: set only in a live report, which does not outlive its callback; a report in flight is an owned Clone with both zero
	"trafficmatrix.Monitor":     {"counterSlab", "counters", "ctrlRNG", "delayProb", "dstEst", "epoch", "epochIndex", "epochStart", "frozen", "gen", "nbScratch", "onReport", "reportDelay", "reportLoss", "routerIDs", "running", "sched", "sketchSlab", "srcEst", "stats", "stop"}, // gen, frozen: which epoch the estimate tables hold, dead between epochs like the tables; stats: work counters, in no Result
}

// TestStateCoverageGuard fails whenever a watched struct's field set drifts
// from the pinned manifest, forcing every new piece of live state through an
// explicit decision: serialize it, prove it rebuild-covered, or exempt it.
func TestStateCoverageGuard(t *testing.T) {
	if manifestVersion != SnapshotVersion {
		t.Fatalf("manifest written for snapshot version %d, code is at %d — re-audit the manifest after a format change",
			manifestVersion, SnapshotVersion)
	}
	seen := make(map[string]bool)
	for _, p := range watchedPackages {
		if len(p.types) == 0 {
			t.Errorf("package %s registers no checkpoint types", p.name)
		}
		for _, v := range p.types {
			rt := reflect.TypeOf(v)
			if rt.Kind() != reflect.Struct {
				t.Errorf("%s: CheckpointTypes entry %v is not a struct", p.name, rt)
				continue
			}
			key := p.name + "." + rt.Name()
			if seen[key] {
				t.Errorf("duplicate watched type %s", key)
				continue
			}
			seen[key] = true
			got := make([]string, 0, rt.NumField())
			for i := 0; i < rt.NumField(); i++ {
				got = append(got, rt.Field(i).Name)
			}
			sort.Strings(got)
			want, ok := fieldManifest[key]
			if !ok {
				t.Errorf("unpinned type %s — decide snapshot coverage for every field, bump SnapshotVersion if the wire format changed, then add:\n\t%s",
					key, manifestEntry(key, got))
				continue
			}
			want = append([]string(nil), want...)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fields of %s drifted from the manifest.\n  pinned: %v\n  actual: %v\nDecide snapshot coverage for the changed fields, bump SnapshotVersion if the wire format changed, then update the entry to:\n\t%s",
					key, want, got, manifestEntry(key, got))
			}
		}
	}
	for key := range fieldManifest {
		if !seen[key] {
			t.Errorf("manifest pins %s but no package registers it — remove the stale entry", key)
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
