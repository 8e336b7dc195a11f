package serve

import (
	"errors"
	"fmt"
	"time"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// Sentinel errors for the submission and job-control surface. The HTTP layer
// maps them onto status codes; embedders can errors.Is against them directly.
var (
	// ErrBadRequest marks submissions rejected for their content: unknown
	// scenario or defence names, parameter combinations that fail scenario
	// validation.
	ErrBadRequest = errors.New("serve: invalid job spec")
	// ErrQueueFull is explicit load shedding: the bounded queue is at
	// capacity and the server refuses to buffer more.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after a drain began.
	ErrDraining = errors.New("serve: server is draining")
	// ErrUnknownJob reports a job ID the server has never seen.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrConflict reports an operation invalid for the job's state, such
	// as cancelling a job that already finished.
	ErrConflict = errors.New("serve: job already finished")
)

// JobState is the lifecycle of one submitted job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// terminal reports whether a job in this state will never run again.
func (s JobState) terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// JobSpec names a scenario and optional parameter overrides — the JSON view
// of experiment.Overrides, field for field (maficsim's flag set is the other
// view). Pointer fields distinguish "not set" (keep the catalog entry's own
// knob) from an explicit zero. The tags are the on-disk format of job.json
// manifests.
type JobSpec struct {
	// Scenario is a catalog name (see maficsim -list). Empty runs the
	// paper-default scenario.
	Scenario string `json:"scenario,omitempty"`
	// Quick runs the scaled-down variant of a catalog entry.
	Quick bool `json:"quick,omitempty"`
	// Hardened applies the robustness hardening after overrides.
	Hardened bool `json:"hardened,omitempty"`

	Seed       *int64   `json:"seed,omitempty"`
	DurationMs *float64 `json:"durationMs,omitempty"`
	Pd         *float64 `json:"pd,omitempty"`
	Flows      *int     `json:"flows,omitempty"`
	TCPShare   *float64 `json:"tcpShare,omitempty"`
	// Rate is the attack source rate in paper-scale packets/s, scaled
	// down to the simulated rate exactly as the CLI's -rate is.
	Rate    *float64 `json:"rate,omitempty"`
	Routers *int     `json:"routers,omitempty"`
	// Defense is "mafic", "proportional" or "none"; empty keeps the
	// scenario's own defence.
	Defense string `json:"defense,omitempty"`
}

// BuildScenario materializes the spec into a validated Scenario through
// experiment.Overrides.Build, the pipeline maficsim's flags go through. All
// rejections are wrapped in ErrBadRequest.
func (spec JobSpec) BuildScenario() (experiment.Scenario, error) {
	o := experiment.Overrides{
		Scenario: spec.Scenario,
		Quick:    spec.Quick,
		Hardened: spec.Hardened,
		Seed:     spec.Seed,
		Pd:       spec.Pd,
		Flows:    spec.Flows,
		TCPShare: spec.TCPShare,
		Rate:     spec.Rate,
		Routers:  spec.Routers,
		Defense:  spec.Defense,
	}
	if spec.DurationMs != nil {
		d := sim.Time(*spec.DurationMs * float64(sim.Millisecond))
		o.Duration = &d
	}
	s, err := o.Build()
	if err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return s, nil
}

// job is the server's mutable record of one submission. Every field after
// spec is guarded by Server.mu.
type job struct {
	id   uint64
	spec JobSpec

	state     JobState
	errMsg    string
	attempts  int
	submitted time.Time
	started   time.Time
	finished  time.Time

	// cancel is closed (once) to interrupt a running job; canceled
	// remembers that so a second Cancel does not close it again.
	cancel   chan struct{}
	canceled bool
	// stopReason records why the control surface interrupted the current
	// attempt, set by the attempt's stopper just before it trips Interrupt.
	stopReason stopReason
}

type stopReason int

const (
	stopNone stopReason = iota
	stopDrain
	stopCancel
	stopTimeout
)

// manifest is the on-disk job record (job.json), written atomically on every
// state transition. It is what startup recovery rebuilds jobs from. Recovery
// decodes it leniently, unlike a POST /jobs body: a key an older build wrote
// and this one no longer has (a spec's checkpointEveryMs) is ignored, so the
// job still recovers.
type manifest struct {
	ID          uint64    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	State       JobState  `json:"state"`
	Error       string    `json:"error,omitempty"`
	Attempts    int       `json:"attempts"`
	SubmittedAt time.Time `json:"submittedAt"`
}

// JobInfo is the externally visible view of a job, served by /jobs.
type JobInfo struct {
	ID       uint64   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Attempts int      `json:"attempts"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
}

// Metrics counts service-level events since process start. Snapshot it with
// Server.Metrics.
type Metrics struct {
	Submitted uint64 `json:"submitted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	TimedOut  uint64 `json:"timedOut"`
	Retried   uint64 `json:"retried"`
	Recovered uint64 `json:"recovered"`
	Drained   uint64 `json:"drained"`
	// SnapshotsWritten is always 0: the service writes no snapshots. It stays
	// only for its one reader, the benchmark's serve.snapshots_per_job
	// (benchmark/drills.go), and goes when that metric retires.
	SnapshotsWritten uint64 `json:"snapshotsWritten"`
}
