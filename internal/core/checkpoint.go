package core

import (
	"cmp"
	"fmt"
	"slices"

	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// ProbeMemoryEntry is one flow's probing-memory count in a snapshot.
type ProbeMemoryEntry struct {
	LabelHash uint64
	Count     uint16
}

// DefenderState is the dynamic state of one MAFIC defender: activation,
// counters, flow tables and the probing memory. Pending probe-cycle events
// are captured separately through CaptureProbeRecord, keyed off the
// scheduler's pending-event walk.
type DefenderState struct {
	Active      bool
	VictimIP    netsim.IP
	Stats       Stats
	ProbeSeqs   uint64
	ProbeMemory []ProbeMemoryEntry
	Tables      flowtable.TablesState
}

// CheckpointState captures the defender's dynamic state into dst, reusing
// dst's probing-memory and table-entry backing. The probing memory is emitted
// in ascending label-hash order so the snapshot does not depend on map
// iteration order.
func (d *Defender) CheckpointState(dst *DefenderState) {
	dst.Active = d.active
	dst.VictimIP = d.victimIP
	dst.Stats = d.stats
	dst.ProbeSeqs = d.probeSeqs
	dst.ProbeMemory = dst.ProbeMemory[:0]
	for h, n := range d.probeMemory {
		dst.ProbeMemory = append(dst.ProbeMemory, ProbeMemoryEntry{LabelHash: h, Count: n})
	}
	slices.SortFunc(dst.ProbeMemory, func(a, b ProbeMemoryEntry) int {
		return cmp.Compare(a.LabelHash, b.LabelHash)
	})
	d.tables.CheckpointState(&dst.Tables)
}

// RestoreState overlays captured dynamic state onto a rebuilt defender.
func (d *Defender) RestoreState(st DefenderState) error {
	d.active = st.Active
	d.victimIP = st.VictimIP
	d.stats = st.Stats
	d.probeSeqs = st.ProbeSeqs
	clear(d.probeMemory)
	if len(st.ProbeMemory) > 0 && d.probeMemory == nil {
		d.probeMemory = make(map[uint64]uint16, len(st.ProbeMemory))
	}
	for _, pm := range st.ProbeMemory {
		d.probeMemory[pm.LabelHash] = pm.Count
	}
	return d.tables.RestoreState(st.Tables)
}

// ProbeHandlers returns the defender's two ArgHandler identities. A
// checkpoint capture matches them against pending events to recognise this
// defender's probe-injection and window-close events.
func (d *Defender) ProbeHandlers() (probeSend, windowEnd sim.ArgHandler) {
	return &d.probeSend, &d.windowEnd
}

// ProbeRecordState is the serializable form of one pending probe record. A
// live record (its flow-table entry still describes the same flow) re-binds
// to the restored entry by label hash; a dead one binds to a sentinel whose
// generation can never match, so the restored events no-op and recycle the
// record exactly as the original run's would have.
type ProbeRecordState struct {
	Live      bool
	EntryHash uint64
	Label     netsim.FlowLabel
	Proto     netsim.Protocol
	Seq       int64
}

// deadProbeEntry is the sentinel dead probe records bind to after a restore.
// Restored records carry gen = deadProbeEntry.Gen + 1, which never matches.
var deadProbeEntry flowtable.Entry

// CaptureProbeRecord describes into dst the probe record a pending
// probe-cycle event carries as its payload.
func (d *Defender) CaptureProbeRecord(arg any, dst *ProbeRecordState) error {
	rec, ok := arg.(*probeRecord)
	if !ok {
		return fmt.Errorf("core: probe event payload is %T, not a probe record", arg)
	}
	*dst = ProbeRecordState{Label: rec.label, Proto: rec.proto, Seq: rec.seq}
	if rec.entry != nil && rec.entry.Gen == rec.gen {
		dst.Live = true
		dst.EntryHash = rec.entry.LabelHash
	}
	return nil
}

// RestoreProbeRecord materializes a probe record from its captured state,
// for use as the payload of the re-inserted probe-cycle events. The two
// events of one cycle share one record; the caller is responsible for
// passing the same returned value to both.
func (d *Defender) RestoreProbeRecord(st ProbeRecordState) (any, error) {
	rec := d.getProbeRecord()
	rec.label, rec.proto, rec.seq = st.Label, st.Proto, st.Seq
	if !st.Live {
		rec.entry = &deadProbeEntry
		rec.gen = deadProbeEntry.Gen + 1
		return rec, nil
	}
	e, state := d.tables.Lookup(st.EntryHash)
	if e == nil || state == flowtable.StateUnknown {
		return nil, fmt.Errorf("core: restore found no flow-table entry for live probe record %x", st.EntryHash)
	}
	rec.entry, rec.gen = e, e.Gen
	return rec, nil
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Defender{},
	Stats{},
	probeRecord{},
}
