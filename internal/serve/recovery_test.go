package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/experiment"
	"mafic/internal/sim"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// resumableSpec checkpoints often enough that a drain mid-run leaves plenty
// of simulation still to do on resume.
func resumableSpec() JobSpec {
	spec := quickSpec()
	spec.CheckpointEveryMs = ptr(20.0)
	return spec
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

func TestDrainSavesFinalSnapshotAndRestartResumes(t *testing.T) {
	spec := resumableSpec()
	want := referenceResult(t, spec)
	dir := t.TempDir()

	sv1, logs1 := newTestServer(t, Config{Dir: dir, Workers: 1})
	saves := 0
	sv1.hooks.afterSave = func(id uint64, at sim.Time) {
		saves++
		if saves == 2 {
			sv1.Drain()
		}
	}
	sv1.Start()
	if _, err := sv1.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The afterSave hook drains mid-run; wait for that before shutting
	// down, or Shutdown's own drain would park the worker with the job
	// still queued.
	select {
	case <-sv1.DrainRequested():
	case <-time.After(30 * time.Second):
		t.Fatal("the checkpoint hook never triggered the drain")
	}
	shutdown(t, sv1)

	info, _ := sv1.Job(1)
	if info.State != StateRunning {
		t.Fatalf("drained job is %s, want still running (it resumes on restart); logs:\n%s", info.State, logs1.String())
	}
	if info.Snapshots == 0 {
		t.Fatal("drain left no snapshot behind")
	}
	if m := sv1.Metrics(); m.Drained != 1 {
		t.Errorf("Drained = %d, want 1", m.Drained)
	}

	// A fresh process over the same dir must pick the job up and finish it
	// bit-identically to the uninterrupted reference.
	sv2, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv2.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	sv2.Start()
	final := waitJob(t, sv2, 1, StateCompleted)
	if final.ResumedFromMs == nil || *final.ResumedFromMs <= 0 {
		t.Error("job did not record the snapshot time it resumed from")
	}
	if !reflect.DeepEqual(resultOf(t, sv2, 1), want) {
		t.Error("resumed result differs from the uninterrupted reference run")
	}
	if m := sv2.Metrics(); m.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", m.Resumed)
	}
	shutdown(t, sv2)
}

// leaveJobMidRun runs spec as job 1 of a service over dir and drains the
// service from the checkpoint hook at the third snapshot, so the store is
// left as a stopped process leaves it: the job unfinished, several snapshots
// behind it. It returns the job's status and the counters as Shutdown left
// them.
func leaveJobMidRun(t *testing.T, dir string, spec JobSpec) (JobInfo, Metrics) {
	t.Helper()
	sv, _ := newTestServer(t, Config{Dir: dir, Workers: 1, Keep: 4})
	saves := 0
	sv.hooks.afterSave = func(id uint64, at sim.Time) {
		saves++
		if saves == 3 {
			sv.Drain()
		}
	}
	sv.Start()
	if _, err := sv.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-sv.DrainRequested():
	case <-time.After(30 * time.Second):
		t.Fatal("the checkpoint hook never triggered the drain")
	}
	shutdown(t, sv)
	info, _ := sv.Job(1)
	return info, sv.Metrics()
}

func TestRestartFallsBackPastCorruptNewestSnapshot(t *testing.T) {
	spec := resumableSpec()
	want := referenceResult(t, spec)
	dir := t.TempDir()

	leaveJobMidRun(t, dir, spec)

	// Tear the newest snapshot in place — the drain-time one.
	names := snapNames(t, filepath.Join(dir, "jobs", "000001"))
	if len(names) < 2 {
		t.Fatalf("need at least 2 snapshots to prove fallback, have %v", names)
	}
	newest := filepath.Join(dir, "jobs", "000001", names[len(names)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read newest snapshot: %v", err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate newest snapshot: %v", err)
	}

	sv2, logs2 := newTestServer(t, Config{Dir: dir, Workers: 1, Keep: 4})
	sv2.Start()
	waitJob(t, sv2, 1, StateCompleted)
	if !reflect.DeepEqual(resultOf(t, sv2, 1), want) {
		t.Error("result after corruption fallback differs from the reference run")
	}
	if m := sv2.Metrics(); m.SnapshotsCorrupt == 0 {
		t.Error("SnapshotsCorrupt = 0; the torn snapshot went unnoticed")
	}
	if !strings.Contains(logs2.String(), "CORRUPT") {
		t.Errorf("fallback was not logged loudly; logs:\n%s", logs2.String())
	}
	shutdown(t, sv2)
}

// TestRecoveryFromVersion1Store is the upgrade path: the store was left
// behind by a build that wrote an earlier snapshot version (1, with its
// transmit-done events, or 2, with fixed-width integers), mid-job. Such
// snapshots are not migrated, so recovery walks past every one of them and
// runs the job again from time zero, and the result it serves is byte for
// byte that of a run that was never interrupted.
func TestRecoveryFromVersion1Store(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			spec := resumableSpec()
			dir := t.TempDir()

			leaveJobMidRun(t, dir, spec)

			// Head every snapshot as the retired version: the header is all this
			// build reads of such a file.
			jobDir := filepath.Join(dir, "jobs", "000001")
			names := snapNames(t, jobDir)
			if len(names) < 2 {
				t.Fatalf("need a store with several snapshots, have %v", names)
			}
			for _, name := range names {
				path := filepath.Join(jobDir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("read snapshot: %v", err)
				}
				binary.LittleEndian.PutUint32(data[len("MAFICSNP"):], version)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatalf("rewrite snapshot: %v", err)
				}
			}

			sv2, logs2 := newTestServer(t, Config{Dir: dir, Workers: 1, Keep: 4})
			sv2.Start()
			final := waitJob(t, sv2, 1, StateCompleted)
			if final.ResumedFromMs != nil {
				t.Errorf("job resumed from a retired-version snapshot at %v ms", *final.ResumedFromMs)
			}
			if m := sv2.Metrics(); m.Resumed != 0 || m.SnapshotsCorrupt != uint64(len(names)) {
				t.Errorf("Resumed = %d, SnapshotsCorrupt = %d, want 0 and %d", m.Resumed, m.SnapshotsCorrupt, len(names))
			}
			if !strings.Contains(logs2.String(), "starting fresh") {
				t.Errorf("the restart from time zero was not logged; logs:\n%s", logs2.String())
			}
			got, err := sv2.ResultBytes(1)
			if err != nil {
				t.Fatalf("ResultBytes: %v", err)
			}
			shutdown(t, sv2)

			if want := serviceResultBytes(t, spec); !bytes.Equal(got, want) {
				t.Error("result.json after recovery from a retired-version store differs from an uninterrupted run's")
			}
		})
	}
}

func TestRecoveryRunsManifestOnlyJobFresh(t *testing.T) {
	// A job that crashed before its first checkpoint: manifest says
	// running, no snapshots. Recovery must start it from scratch.
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "000007")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := quickSpec()
	m := manifest{ID: 7, Spec: spec, State: StateRunning, Attempts: 1, SubmittedAt: time.Now()}
	data, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := referenceResult(t, spec)

	sv, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
	if m := sv.Metrics(); m.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m.Recovered)
	}
	sv.Start()
	final := waitJob(t, sv, 7, StateCompleted)
	if final.ResumedFromMs != nil {
		t.Error("job claims to have resumed with no snapshot on disk")
	}
	if !reflect.DeepEqual(resultOf(t, sv, 7), want) {
		t.Error("fresh recovery run differs from the reference")
	}
	if m := sv.Metrics(); m.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0", m.Resumed)
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
// completeJob: result.json is written, then the snapshots are cleared, then
// the manifest is marked completed, and the process dies after the first step
// or the second. Recovery used to see a running manifest and run the whole job
// again from t=0; it must adopt the result, say so, and run nothing.
func TestRecoveryAdoptsFinishedJobUnderRunningManifest(t *testing.T) {
	for _, leftover := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshots-left=%v", leftover), func(t *testing.T) {
			dir := t.TempDir()
			jobDir := filepath.Join(dir, "jobs", "000001")
			sv1, _ := newTestServer(t, Config{Dir: dir, Workers: 1})
			var lastAt sim.Time
			var lastSnap []byte
			sv1.save = func(st *checkpoint.Store, at sim.Time, data []byte) error {
				lastAt, lastSnap = at, data
				return st.Save(at, data)
			}
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
			m := manifest{ID: 1, Spec: quickSpec(), State: StateRunning, Attempts: 1, SubmittedAt: time.Now()}
			data, _ := json.Marshal(m)
			if err := os.WriteFile(filepath.Join(jobDir, "job.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if leftover {
				st, err := checkpoint.OpenStore(jobDir, 3)
				if err == nil {
					err = st.Save(lastAt, lastSnap)
				}
				if err != nil {
					t.Fatalf("put a snapshot back: %v", err)
				}
			}

			sv2, logs2 := newTestServer(t, Config{Dir: dir, Workers: 1})
			sv2.runner = func(experiment.Scenario, []byte, experiment.ControlOptions) (experiment.Result, error) {
				t.Error("a job with a complete result.json was run again")
				return experiment.Result{}, nil
			}
			if m := sv2.Metrics(); m.Recovered != 0 {
				t.Errorf("Recovered = %d; the finished job was re-enqueued", m.Recovered)
			}
			info, ok := sv2.Job(1)
			if !ok || info.State != StateCompleted || info.Snapshots != 0 {
				t.Fatalf("adopted job: %+v, want completed with no snapshots", info)
			}
			if !strings.Contains(logs2.String(), "recovery: job 1 has a complete result.json") {
				t.Errorf("the adoption was not logged; logs:\n%s", logs2.String())
			}
			sv2.Start()
			shutdown(t, sv2)
			if got, err := sv2.ResultBytes(1); err != nil || !bytes.Equal(got, want) {
				t.Errorf("result.json changed across the adoption (err %v)", err)
			}
			if names := snapNames(t, jobDir); len(names) != 0 {
				t.Errorf("snapshots left behind the adopted job: %v", names)
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

func snapNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // seq-prefixed: lexical order is write order
	return names
}
