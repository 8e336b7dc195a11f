package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mafic/internal/experiment"
	"mafic/internal/sim"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// referenceResult runs the spec's scenario uninterrupted, in-process.
func referenceResult(t *testing.T, spec JobSpec) experiment.Result {
	t.Helper()
	s, err := spec.BuildScenario()
	if err != nil {
		t.Fatalf("build reference scenario: %v", err)
	}
	want, err := experiment.Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return want
}

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

// TestDrainThenRestartRunsAgain drains the service while its one job runs:
// the run stops at a poll, the job stays running on disk, and a fresh process
// over the same directory runs it again to the uninterrupted run's result.
func TestDrainThenRestartRunsAgain(t *testing.T) {
	spec := quickSpec()
	spec.DurationMs = ptr(5000.0) // about 60 ms of wall time, far more under -race
	want := referenceResult(t, spec)
	dir := t.TempDir()

	sv1, logs1 := newTestServer(t, Config{Dir: dir, Workers: 1})
	started := make(chan struct{})
	var firstErr error
	sv1.runner = func(s experiment.Scenario, opts experiment.ControlOptions) (experiment.Result, error) {
		close(started)
		res, err := experiment.RunControlled(s, opts)
		firstErr = err
		return res, err
	}
	sv1.Start()
	if _, err := sv1.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never started")
	}
	// The sleep only aims the drain at the middle of the run; the test holds
	// wherever it lands, as long as the run has not finished by then.
	time.Sleep(20 * time.Millisecond)
	shutdown(t, sv1)

	if !errors.Is(firstErr, experiment.ErrInterrupted) {
		t.Fatalf("the drained run returned %v, want ErrInterrupted", firstErr)
	}
	info, _ := sv1.Job(1)
	if info.State != StateRunning {
		t.Fatalf("drained job is %s, want still running (it runs again on restart); logs:\n%s", info.State, logs1.String())
	}
	if m := sv1.Metrics(); m.Drained != 1 {
		t.Errorf("Drained = %d, want 1", m.Drained)
	}

	sv2, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv2.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	sv2.Start()
	waitJob(t, sv2, 1, StateCompleted)
	if !reflect.DeepEqual(resultOf(t, sv2, 1), want) {
		t.Error("the result of the job run again differs from the uninterrupted reference run")
	}
	shutdown(t, sv2)
}

// oldSnapshot is a snapshot file as an older build's service left it: spec's
// run captured at the given time, headed as the given format version.
func oldSnapshot(t *testing.T, spec JobSpec, at sim.Time, version uint32) []byte {
	t.Helper()
	s, err := spec.BuildScenario()
	if err != nil {
		t.Fatalf("build scenario: %v", err)
	}
	var data []byte
	if _, err := experiment.RunWithCheckpoints(s, []sim.Time{at}, func(_ sim.Time, d []byte) error {
		data = d
		return nil
	}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	binary.LittleEndian.PutUint32(data[len("MAFICSNP"):], version)
	return data
}

// TestRecoveryFromVersion1Store is the upgrade path: a job directory as an
// older build's service left it mid-job, with a running manifest whose spec
// still sets the retired checkpointEveryMs, snapshot files of one format
// version (1, 2 or the current 3) and a temp-file leftover of a write the
// crash cut short. The job must recover by running again from its manifest,
// leave every one of those files as it found them, and serve result.json
// bytes equal to a run that was never interrupted.
func TestRecoveryFromVersion1Store(t *testing.T) {
	spec := quickSpec()
	want := serviceResultBytes(t, spec)
	for _, version := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			jobDir := filepath.Join(dir, "jobs", "000001")
			if err := os.MkdirAll(jobDir, 0o755); err != nil {
				t.Fatal(err)
			}
			specJSON, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			manifest := fmt.Sprintf(`{"id":1,"spec":%s,"state":"running","attempts":1,"submittedAt":"2026-01-02T03:04:05Z"}`,
				bytes.Replace(specJSON, []byte("{"), []byte(`{"checkpointEveryMs":20,`), 1))
			leftovers := map[string][]byte{
				"00000001-20000000.snap":          oldSnapshot(t, spec, 20*sim.Millisecond, version),
				"00000002-40000000.snap":          oldSnapshot(t, spec, 40*sim.Millisecond, version),
				"00000003-60000000.snap.tmp-4242": []byte("torn"),
			}
			files := map[string][]byte{"job.json": []byte(manifest)}
			for name, data := range leftovers {
				files[name] = data
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(jobDir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			sv, logs := newTestServer(t, Config{Dir: dir, Workers: 1})
			if m := sv.Metrics(); m.Recovered != 1 {
				t.Fatalf("Recovered = %d, want 1; logs:\n%s", m.Recovered, logs.String())
			}
			if info, _ := sv.Job(1); !reflect.DeepEqual(info.Spec, spec) {
				t.Errorf("recovered spec %+v, want %+v", info.Spec, spec)
			}
			runs := 0
			run := sv.runner
			sv.runner = func(s experiment.Scenario, opts experiment.ControlOptions) (experiment.Result, error) {
				runs++
				return run(s, opts)
			}
			sv.Start()
			waitJob(t, sv, 1, StateCompleted)
			got, err := sv.ResultBytes(1)
			if err != nil {
				t.Fatalf("ResultBytes: %v", err)
			}
			shutdown(t, sv)

			if runs != 1 {
				t.Errorf("the job ran %d times, want once", runs)
			}
			if !bytes.Equal(got, want) {
				t.Error("result.json after recovery from an older build's store differs from an uninterrupted run's")
			}
			for name, data := range leftovers {
				if kept, err := os.ReadFile(filepath.Join(jobDir, name)); err != nil || !bytes.Equal(kept, data) {
					t.Errorf("%s was changed or removed (err %v)", name, err)
				}
			}
		})
	}
}

// writeManifest puts m on disk as job.json in its job's directory under dir,
// as a process that died with the job in m.State left it.
func writeManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	jobDir := filepath.Join(dir, "jobs", fmt.Sprintf("%06d", m.ID))
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRunsManifestOnlyJobFresh(t *testing.T) {
	// A job that crashed mid-run: its manifest says running, and nothing
	// else of it is on disk. Recovery must run it again.
	dir := t.TempDir()
	spec := quickSpec()
	writeManifest(t, dir, manifest{ID: 7, Spec: spec, State: StateRunning, SubmittedAt: time.Now()})
	want := referenceResult(t, spec)

	sv, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	sv.Start()
	waitJob(t, sv, 7, StateCompleted)
	if !reflect.DeepEqual(resultOf(t, sv, 7), want) {
		t.Error("fresh recovery run differs from the reference")
	}
	// New submissions continue past the recovered ID space.
	info, err := sv.Submit(quickSpec())
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if info.ID != 8 {
		t.Errorf("next job ID = %d, want 8", info.ID)
	}
	waitJob(t, sv, 8, StateCompleted)
	shutdown(t, sv)
}

// TestRecoveryAdoptsFinishedJobUnderRunningManifest is the crash inside
// completeJob: result.json is written, then the manifest is marked completed,
// and the process dies in between — with or without a snapshot file that an
// older build left in the directory. Recovery used to see a running manifest
// and run the whole job again from t=0; it must adopt the result, say so, run
// nothing and leave the snapshot file alone.
func TestRecoveryAdoptsFinishedJobUnderRunningManifest(t *testing.T) {
	for _, leftover := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshots-left=%v", leftover), func(t *testing.T) {
			dir := t.TempDir()
			jobDir := filepath.Join(dir, "jobs", "000001")
			sv1, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
			sv1.Start()
			if _, err := sv1.Submit(quickSpec()); err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitJob(t, sv1, 1, StateCompleted)
			want, err := sv1.ResultBytes(1)
			if err != nil {
				t.Fatalf("ResultBytes: %v", err)
			}
			shutdown(t, sv1)

			// Put the directory back to where the crash left it.
			writeManifest(t, dir, manifest{ID: 1, Spec: quickSpec(), State: StateRunning, SubmittedAt: time.Now()})
			const snapName = "00000009-900000000.snap"
			snap := oldSnapshot(t, quickSpec(), 900*sim.Millisecond, 3)
			if leftover {
				if err := os.WriteFile(filepath.Join(jobDir, snapName), snap, 0o644); err != nil {
					t.Fatalf("leave a snapshot behind: %v", err)
				}
			}

			sv2, logs2 := newTestServer(t, Config{Dir: dir, Workers: 1})
			sv2.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
				t.Error("a job with a complete result.json was run again")
				return experiment.Result{}, nil
			}
			if m := sv2.Metrics(); m.Recovered != 0 {
				t.Errorf("Recovered = %d; the finished job was re-enqueued", m.Recovered)
			}
			info, ok := sv2.Job(1)
			if !ok || info.State != StateCompleted {
				t.Fatalf("adopted job: %+v, want completed", info)
			}
			if !strings.Contains(logs2.String(), "recovery: job 1 has a complete result.json") {
				t.Errorf("the adoption was not logged; logs:\n%s", logs2.String())
			}
			sv2.Start()
			shutdown(t, sv2)
			if got, err := sv2.ResultBytes(1); err != nil || !bytes.Equal(got, want) {
				t.Errorf("result.json changed across the adoption (err %v)", err)
			}
			if kept, err := os.ReadFile(filepath.Join(jobDir, snapName)); leftover && (err != nil || !bytes.Equal(kept, snap)) {
				t.Errorf("the older build's snapshot was changed or removed (err %v)", err)
			}

			// The manifest was rewritten: the next process sees an ordinary
			// completed job and has nothing to adopt.
			sv3, logs3 := newTestServer(t, Config{Dir: dir, Workers: 1})
			if info, _ := sv3.Job(1); info.State != StateCompleted {
				t.Errorf("after the adoption the manifest says %s", info.State)
			}
			if strings.Contains(logs3.String(), "adopting") {
				t.Errorf("the manifest was not rewritten; the job was adopted twice:\n%s", logs3.String())
			}
		})
	}
}

// TestRecoveredJobWhoseSpecNoLongerBuildsFailsOnce is a running job whose
// spec this build cannot build (it names a catalog entry that does not
// exist): recovery re-enqueues it, it fails without reaching the runner, its
// error is the build's ErrBadRequest naming the entry, and a later process
// over the same store leaves it failed instead of enqueueing it again.
func TestRecoveredJobWhoseSpecNoLongerBuildsFailsOnce(t *testing.T) {
	dir := t.TempDir()
	writeManifest(t, dir, manifest{ID: 1, Spec: JobSpec{Scenario: "retired-entry"}, State: StateRunning, SubmittedAt: time.Now()})

	sv1, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv1.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	sv1.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
		t.Error("a spec that does not build reached the runner")
		return experiment.Result{}, nil
	}
	sv1.Start()
	info := waitJob(t, sv1, 1, StateFailed)
	shutdown(t, sv1)
	if !strings.HasPrefix(info.Error, ErrBadRequest.Error()) || !strings.Contains(info.Error, `"retired-entry"`) {
		t.Errorf("error %q, want ErrBadRequest's message naming the entry", info.Error)
	}
	if m := sv1.Metrics(); m.Failed != 1 {
		t.Errorf("Failed = %d, want 1", m.Failed)
	}

	sv2, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv2.Metrics(); m.Recovered != 0 {
		t.Errorf("Recovered = %d; the failed job was enqueued again", m.Recovered)
	}
	if got, _ := sv2.Job(1); got.State != StateFailed || got.Error != info.Error {
		t.Errorf("after a restart the job is %s with error %q, want failed with %q", got.State, got.Error, info.Error)
	}
}

func TestRecoverySkipsCorruptManifestLoudly(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "000003")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	sv, logs := newTestServer(t, Config{Dir: dir})
	if jobs := sv.Jobs(); len(jobs) != 0 {
		t.Errorf("corrupt manifest produced jobs: %v", jobs)
	}
	if !strings.Contains(logs.String(), "CORRUPT manifest") {
		t.Errorf("corrupt manifest was not logged; logs:\n%s", logs.String())
	}
}

// TestCompletedJobSurvivesRestart pins where a finished job's result lives:
// in result.json only. Before a restart and after recovery, GET /jobs/1 and
// GET /jobs carry no result key, and /jobs/1/result serves the bytes of an
// uninterrupted run.
func TestCompletedJobSurvivesRestart(t *testing.T) {
	spec := quickSpec()
	want := serviceResultBytes(t, spec)
	dir := t.TempDir()
	sv1, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	sv1.Start()
	if _, err := sv1.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, sv1, 1, StateCompleted)
	checkResultOnlyInFile(t, sv1, want)
	shutdown(t, sv1)

	sv2, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	info, ok := sv2.Job(1)
	if !ok || info.State != StateCompleted {
		t.Fatalf("completed job lost across restart: %+v", info)
	}
	if m := sv2.Metrics(); m.Recovered != 0 {
		t.Errorf("completed job was re-enqueued: Recovered = %d", m.Recovered)
	}
	checkResultOnlyInFile(t, sv2, want)
}

// checkResultOnlyInFile asks sv's HTTP API for job 1, alone and in the list,
// and for its result: neither status view may carry a result key, and the
// result must be want, byte for byte.
func checkResultOnlyInFile(t *testing.T, sv *Server, want []byte) {
	t.Helper()
	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		sv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var one map[string]json.RawMessage
	var all []map[string]json.RawMessage
	if err := json.Unmarshal(get("/jobs/1"), &one); err != nil {
		t.Fatalf("decode /jobs/1: %v", err)
	}
	if err := json.Unmarshal(get("/jobs"), &all); err != nil || len(all) != 1 {
		t.Fatalf("decode /jobs: %d jobs, %v", len(all), err)
	}
	for path, view := range map[string]map[string]json.RawMessage{"/jobs/1": one, "/jobs": all[0]} {
		if _, ok := view["result"]; ok {
			t.Errorf("GET %s carries a result key", path)
		}
	}
	if got := get("/jobs/1/result"); !bytes.Equal(got, want) {
		t.Error("/jobs/1/result differs from an uninterrupted run's result.json")
	}
}

// resultOf decodes job id's result.json, the one place a result is kept.
func resultOf(t *testing.T, sv *Server, id uint64) experiment.Result {
	t.Helper()
	raw, err := sv.ResultBytes(id)
	if err != nil {
		t.Fatalf("ResultBytes: %v", err)
	}
	var res experiment.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result.json: %v", err)
	}
	return res
}

// TestUnwritableManifestIsLogged pins that a final state which cannot be
// written down says so: with job.json replaced by a directory no manifest
// write can land, the job fails (it could not even be marked running) and the
// failure to persist that is logged with the job id rather than dropped —
// after a restart this job would run again, and the log is the only trace.
func TestUnwritableManifestIsLogged(t *testing.T) {
	dir := t.TempDir()
	sv, logs := newTestServer(t, Config{Dir: dir, Workers: 1})
	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	manifestPath := filepath.Join(dir, "jobs", "000001", "job.json")
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifestPath, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	sv.Start()
	waitJob(t, sv, 1, StateFailed)
	shutdown(t, sv)
	if !strings.Contains(logs.String(), "job 1: persist manifest: ") {
		t.Errorf("the manifest write failure was not logged; logs:\n%s", logs.String())
	}
}
