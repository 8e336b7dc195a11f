package sim

import (
	"fmt"
	"time"
)

// Time is a virtual simulation timestamp measured in nanoseconds since the
// start of the simulation. It is deliberately distinct from time.Time: the
// simulator never consults the wall clock.
type Time int64

// Common time unit constants expressed as sim.Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Horizon is half of Time's range, 146 years: a run's clock stays below it
// and no event is keyed more than Horizon past the clock, so no key wraps.
const Horizon Time = 1 << 62

// FromDuration converts a time.Duration into a simulation time delta.
func FromDuration(d time.Duration) Time {
	return Time(d.Nanoseconds())
}

// Seconds reports the timestamp as a floating-point number of seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// String renders the timestamp with second precision for logs and test
// failure messages.
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Rate converts a count accumulated over the window ending at t and starting
// at start into a per-second rate. It returns zero for empty or inverted
// windows so callers do not have to special-case division by zero.
func Rate(count float64, start, end Time) float64 {
	if end <= start {
		return 0
	}
	return count / (end - start).Seconds()
}
