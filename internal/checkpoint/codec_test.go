package checkpoint

import (
	"strings"
	"testing"

	"mafic/internal/baseline"
	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/metrics"
	"mafic/internal/netsim"
	"mafic/internal/traffic"
	"mafic/internal/trafficmatrix"
)

// refusedByCount reports whether decoding a list of n elements from the given
// number of zero bytes fails at the count, before any element is read.
func refusedByCount[T any](walk func(*codec, *T), n uint32, behind int) (refused bool, got []T) {
	w := &writer{}
	w.u32(n)
	c := &codec{dec: true, r: reader{b: append(w.b, make([]byte, behind)...)}}
	list(c, &got, walk)
	return c.r.err != nil && strings.Contains(c.r.err.Error(), "element count"), got
}

// minimum is one list element type: the bound the hand-written decoder gave
// it, the one list derives, and what the smallest real element encodes to.
type minimum struct {
	name                  string
	old, derived, encoded int
}

func minimumOf[T any](name string, old int, walk func(*codec, *T), smallest T) minimum {
	derived := 0
	for refused, _ := refusedByCount(walk, 1, derived); refused; refused, _ = refusedByCount(walk, 1, derived) {
		derived++
	}
	c := &codec{}
	walk(c, &smallest)
	return minimum{name, old, derived, len(c.w.b)}
}

// TestDerivedListMinima holds the bound list derives for each element type —
// what a zero element encodes to — between the constant the hand-written
// decoder passed to reader.count for that type and the encoded size of the
// smallest element a run can produce (zero counters, the cheaper arm of a
// union, empty nested lists): never looser than before, never so tight that a
// real file is refused. It says nothing about the order or presence of fields,
// which other gates hold: swapping two fields in a walk fails `make
// result-diff` (the bytes move), deleting one fails
// experiment.TestDecodeInvertsEncode (the field comes back zero).
func TestDerivedListMinima(t *testing.T) {
	for _, m := range []minimum{
		minimumOf("streams", 2, walkStream, StreamState{}),
		minimumOf("events", 3, walkEvent, EventState{Kind: EvBuild}),
		minimumOf("probe records", 9, walkProbeRec, ProbeRec{}),
		minimumOf("links", 6, walkLink, netsim.LinkState{}),
		minimumOf("nodes", 4, walkNode, NodeState{}),
		minimumOf("route dests, report routers", 1, i64of[netsim.NodeID], 0),
		minimumOf("counters", 11, walkCounter, trafficmatrix.CounterState{}),
		minimumOf("bins", 4, walkBin, metrics.BandwidthPoint{}),
		minimumOf("defenders", 20, walkDefender, core.DefenderState{}),
		minimumOf("droppers", 5, walkDropper, baseline.DropperState{}),
		minimumOf("flows", 29, walkFlow, traffic.FlowState{Kind: traffic.FlowTCP}),
		minimumOf("victims", 4, walkVictim, traffic.VictimServerState{}),
		minimumOf("probe memory", 2, walkProbeMemory, core.ProbeMemoryEntry{}),
		minimumOf("table entries", 11, walkEntry, flowtable.Entry{}),
		minimumOf("matrix cells", 10, walkCell, trafficmatrix.Cell{}),
		minimumOf("float64", 8, (*codec).f64, 0),
		minimumOf("bool", 1, (*codec).boolean, false),
	} {
		if m.derived < m.old || m.derived > m.encoded {
			t.Errorf("%s: list bounds an element by %d bytes, want at least the old constant %d and at most the smallest element's %d",
				m.name, m.derived, m.old, m.encoded)
		}
	}
}

// TestListBoundsPreallocation is TestCountBoundsPreallocation through list: a
// count is believed exactly as far as the payload could hold that many of the
// smallest element, and a refused one allocates no list.
func TestListBoundsPreallocation(t *testing.T) {
	const flow, behind = 29, 4*29 + 28
	if refused, got := refusedByCount(walkFlow, behind/flow+1, behind); !refused || got != nil {
		t.Errorf("5 flows in %d bytes: refused at the count %v, list of %d allocated", behind, refused, len(got))
	}
	if refused, got := refusedByCount(walkFlow, 1<<31, behind); !refused || got != nil {
		t.Errorf("2^31 flows in %d bytes: refused at the count %v, list of %d allocated", behind, refused, len(got))
	}
	if refused, got := refusedByCount(walkFlow, behind/flow, behind); refused || len(got) != behind/flow {
		t.Errorf("4 flows in %d bytes: refused at the count %v, %d decoded", behind, refused, len(got))
	}
}
