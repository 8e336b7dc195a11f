package serve

import (
	"time"

	"mafic/internal/sim"
)

// writeBehind persists an attempt's snapshots one behind the simulation:
// save hands a snapshot to its own goroutine and returns, so the fsyncs of
// checkpoint k overlap the segment that leads to checkpoint k+1. At most one
// write is ever in flight — save first waits for the previous one and returns
// its error — so write never runs concurrently with itself, and whoever calls
// flush owns everything write touches from then until the next save.
//
// A writeBehind with write and stalled set is ready to use. save and flush
// belong to one goroutine, the run's.
type writeBehind struct {
	// write persists one snapshot durably. It runs on the helper's goroutine.
	write func(at sim.Time, data []byte) error
	// stalled is told how long a save or flush had to wait for a write that
	// had not finished yet.
	stalled func(d time.Duration)

	pending chan error // the write in flight; nil when there is none
}

// save waits out the previous write, fails with its error if it had one, and
// otherwise starts writing data in the background. It keeps data.
func (w *writeBehind) save(at sim.Time, data []byte) error {
	if err := w.flush(); err != nil {
		return err
	}
	done := make(chan error, 1)
	w.pending = done
	go func() { done <- w.write(at, data) }()
	return nil
}

// flush waits for the write in flight, if any, and returns its error. After
// flush no goroutine of the helper is running.
func (w *writeBehind) flush() error {
	if w.pending == nil {
		return nil
	}
	var err error
	select {
	case err = <-w.pending:
	default:
		t0 := time.Now()
		err = <-w.pending
		w.stalled(time.Since(t0))
	}
	w.pending = nil
	return err
}
