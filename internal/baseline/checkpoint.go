package baseline

import "mafic/internal/netsim"

// DropperState is the dropper's dynamic state. The probability, router
// binding, RNG fork and observer wiring are rebuild-covered (the RNG stream
// position travels with the scheduler's RNG registry).
type DropperState struct {
	Active   bool
	VictimIP netsim.IP
	Stats    Stats
}

// CheckpointState captures the dropper's dynamic state into dst.
func (p *Dropper) CheckpointState(dst *DropperState) {
	*dst = DropperState{Active: p.active, VictimIP: p.victimIP, Stats: p.stats}
}

// RestoreState overlays captured dynamic state onto a rebuilt dropper.
func (p *Dropper) RestoreState(st DropperState) {
	p.active = st.Active
	p.victimIP = st.VictimIP
	p.stats = st.Stats
}

// CheckpointTypes lists this package's structs that carry snapshotted state.
var CheckpointTypes = []any{
	Dropper{},
	Stats{},
}
