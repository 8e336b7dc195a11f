package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/experiment"
	"mafic/internal/sim"
)

// serviceResultBytes is result.json of spec run through a service of its own
// with nothing going wrong.
func serviceResultBytes(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	sv, _ := newTestServer(t, Config{Workers: 1})
	sv.Start()
	if _, err := sv.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, sv, 1, StateCompleted)
	data, err := sv.ResultBytes(1)
	if err != nil {
		t.Fatalf("ResultBytes: %v", err)
	}
	shutdown(t, sv)
	return data
}

// TestSnapshotWriteFailureSurfacesAndRetryResumesFromDurable fails one
// snapshot write, once. The attempt must end no later than the next boundary
// (mid-run) or the run's end, where the control loop joins its last save (last
// snapshot: the subtest's "flush"), nothing the client can see may
// count the unwritten file, and the retry must resume from the newest snapshot
// that did reach the disk and still produce the uninterrupted run's bytes.
func TestSnapshotWriteFailureSurfacesAndRetryResumesFromDurable(t *testing.T) {
	spec := resumableSpec() // 1000 ms, a snapshot every 20 ms: 20 … 980
	want := serviceResultBytes(t, spec)
	boom := errors.New("injected write failure")
	for _, tc := range []struct {
		name           string
		failAt, resume sim.Time
	}{
		{"mid-run, seen at the next boundary", 60 * sim.Millisecond, 40 * sim.Millisecond},
		{"last snapshot, seen at the flush", 980 * sim.Millisecond, 960 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv, logs := newTestServer(t, Config{Workers: 1, MaxRetries: 1})
			sv.sleep = func(time.Duration) bool { return true }
			// calls and written are touched by one write at a time, each
			// ordered after the last by the control loop's join.
			var calls []sim.Time
			written, failed := 0, false
			sv.save = func(st *checkpoint.Store, at sim.Time, data []byte) error {
				calls = append(calls, at)
				if at == tc.failAt && !failed {
					failed = true
					return boom
				}
				written++
				return st.Save(at, data)
			}
			var atRetry JobInfo
			var metricsAtRetry Metrics
			var filesAtRetry int
			sv.hooks.beforeAttempt = func(id uint64, attempt int) {
				if attempt == 2 {
					atRetry, _ = sv.Job(id)
					metricsAtRetry = sv.Metrics()
					files, _ := filepath.Glob(filepath.Join(sv.jobDir(id), "*.snap"))
					filesAtRetry = len(files)
				}
			}
			sv.Start()
			if _, err := sv.Submit(spec); err != nil {
				t.Fatalf("submit: %v", err)
			}
			final := waitJob(t, sv, 1, StateCompleted)
			shutdown(t, sv)

			if final.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2; logs:\n%s", final.Attempts, logs.String())
			}
			// Attempt 1 handed over nothing past the write that failed: the
			// call after it is the retry's first, one interval past tc.resume.
			k := int(tc.failAt / (20 * sim.Millisecond)) // calls[k-1] is the failed one
			if len(calls) <= k || calls[k-1] != tc.failAt || calls[k] != tc.resume+20*sim.Millisecond {
				t.Errorf("writes attempted: %v; want the one at %v followed by the retry's at %v", calls, tc.failAt, tc.resume+20*sim.Millisecond)
			}
			durable := k - 1
			if atRetry.Snapshots != min(durable, 3) || filesAtRetry != min(durable, 3) {
				t.Errorf("at the retry: Snapshots = %d, %d files on disk, want %d (keep 3 of %d durable)", atRetry.Snapshots, filesAtRetry, min(durable, 3), durable)
			}
			if got := atRetry.LastCheckpointMs; got != float64(tc.resume/sim.Millisecond) {
				t.Errorf("at the retry: LastCheckpointMs = %v, want the last durable one, %v", got, tc.resume/sim.Millisecond)
			}
			if metricsAtRetry.SnapshotsWritten != uint64(durable) {
				t.Errorf("at the retry: SnapshotsWritten = %d, want %d", metricsAtRetry.SnapshotsWritten, durable)
			}
			if final.ResumedFromMs == nil || *final.ResumedFromMs != float64(tc.resume/sim.Millisecond) {
				t.Errorf("retry resumed from %v ms, want the newest durable snapshot at %v", final.ResumedFromMs, tc.resume/sim.Millisecond)
			}
			if m := sv.Metrics(); m.SnapshotsWritten != uint64(written) || m.Retried != 1 {
				t.Errorf("metrics %+v, want SnapshotsWritten=%d Retried=1", m, written)
			}
			got, err := sv.ResultBytes(1)
			if err != nil {
				t.Fatalf("ResultBytes: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Error("result.json after a failed snapshot write differs from an uninterrupted run's")
			}
		})
	}
}

// TestCompletionWaitsForPendingWrite holds the last snapshot's write open
// past the end of the simulation: until it is let go the runner must not
// return, and the job must stay running with no result.json and its snapshots
// in place; the wait must show on /healthz afterwards.
func TestCompletionWaitsForPendingWrite(t *testing.T) {
	spec := quickSpec() // 1000 ms at the default 100 ms interval: last snapshot at 900
	sv, _ := newTestServer(t, Config{Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	sv.save = func(st *checkpoint.Store, at sim.Time, data []byte) error {
		if at == 900*sim.Millisecond {
			close(entered)
			<-release
		}
		return st.Save(at, data)
	}
	ranOut := make(chan struct{})
	run := sv.runner
	sv.runner = func(s experiment.Scenario, resume []byte, opts experiment.ControlOptions) (experiment.Result, error) {
		res, err := run(s, resume, opts)
		close(ranOut)
		return res, err
	}
	sv.Start()
	if _, err := sv.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the run never got to its last snapshot")
	}
	// The last segment is 100 simulated ms, far less than this: a runner
	// that did not wait for the write would be back by now.
	select {
	case <-ranOut:
		t.Fatal("the runner returned with its last snapshot write pending")
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := os.Stat(filepath.Join(sv.jobDir(1), "result.json")); !os.IsNotExist(err) {
		t.Errorf("result.json exists with a snapshot write pending (stat: %v)", err)
	}
	if info, _ := sv.Job(1); info.State != StateRunning || info.Snapshots != 3 || info.LastCheckpointMs != 800 {
		t.Errorf("with the last write pending: state %s, %d snapshots, last at %v ms; want running, 3, 800", info.State, info.Snapshots, info.LastCheckpointMs)
	}
	close(release)
	waitJob(t, sv, 1, StateCompleted)
	if names := snapNames(t, sv.jobDir(1)); len(names) != 0 {
		t.Errorf("snapshots left behind a completed job: %v (one written after Clear?)", names)
	}

	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if h.Metrics.SnapshotsWritten != 9 || h.Metrics.SnapshotWaits == 0 || h.Metrics.SnapshotWaitMs < 50 {
		t.Errorf("healthz metrics %+v; want 9 snapshots written and the held write counted as a wait of 50 ms or more", h.Metrics)
	}
	shutdown(t, sv)
}

// TestDrainedFinalSnapshotIsLatestValid: once Shutdown has returned, the
// snapshot a drain took last is on disk, newest in the store, and is what the
// job's status and the counters describe.
func TestDrainedFinalSnapshotIsLatestValid(t *testing.T) {
	dir := t.TempDir()
	info, m := leaveJobMidRun(t, dir, resumableSpec())
	st, err := checkpoint.OpenStore(filepath.Join(dir, "jobs", "000001"), 4)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	_, latest, skipped, err := st.LatestValid()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("LatestValid: %v, skipped %v", err, skipped)
	}
	// Sequence numbers start at 1 and only a durable write takes one, so the
	// newest file carrying the count of writes means none is missing.
	if latest.Seq != m.SnapshotsWritten {
		t.Errorf("newest snapshot has seq %d, SnapshotsWritten = %d", latest.Seq, m.SnapshotsWritten)
	}
	// The drain was ordered from the third write's hook, at t=60ms; the
	// snapshot it ends with is taken after that.
	if latest.At <= 60*sim.Millisecond || info.LastCheckpointMs != float64(latest.At)/float64(sim.Millisecond) {
		t.Errorf("newest snapshot at %v, status says %v ms; want the drain's final one, past 60 ms", latest.At, info.LastCheckpointMs)
	}
	if info.Snapshots != st.Count() {
		t.Errorf("status counts %d snapshots, the store holds %d", info.Snapshots, st.Count())
	}
}
