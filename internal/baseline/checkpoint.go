package baseline

import "mafic/internal/netsim"

// DropperState is the dropper's dynamic state, held by the dropper as it
// runs. The probability, router binding, RNG fork and observer wiring are
// rebuild-covered (the RNG stream position travels with the scheduler's RNG
// registry).
type DropperState struct {
	Active   bool
	VictimIP netsim.IP
	Stats    Stats
}

// CheckpointState captures the dropper's dynamic state into dst.
func (p *Dropper) CheckpointState(dst *DropperState) { *dst = p.st }

// RestoreState overlays captured dynamic state onto a rebuilt dropper.
func (p *Dropper) RestoreState(st DropperState) { p.st = st }
