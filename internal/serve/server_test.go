package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mafic/internal/experiment"
)

func ptr[T any](v T) *T { return &v }

// quickSpec is a valid, cheap submission used throughout the tests. The
// duration must clear the scenario's 600ms attack start or validation
// rejects it.
func quickSpec() JobSpec {
	return JobSpec{Scenario: "table2", Quick: true, DurationMs: ptr(1000.0)}
}

// syncBuffer lets server goroutines and test assertions share a log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Log == nil {
		cfg.Log = log.New(logs, "", 0)
	}
	sv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sv, logs
}

func shutdown(t *testing.T, sv *Server) {
	t.Helper()
	ctx, cancel := contextWithTimeout(30 * time.Second)
	defer cancel()
	if err := sv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func waitJob(t *testing.T, sv *Server, id uint64, want JobState) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := sv.Job(id)
		if ok && info.State == want {
			return info
		}
		if ok && info.State.terminal() && info.State != want {
			t.Fatalf("job %d reached %s (error %q), want %s", id, info.State, info.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached %s", id, want)
	return JobInfo{}
}

func TestSubmitShedsWhenQueueFull(t *testing.T) {
	sv, _ := newTestServer(t, Config{QueueCap: 1, Workers: 1})
	gate := make(chan struct{})
	started := make(chan uint64, 4)
	sv.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
		<-gate
		return experiment.Result{}, nil
	}
	sv.hooks.beforeAttempt = func(id uint64, attempt int) { started <- id }
	sv.Start()

	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// Job 1 must be out of the queue (running) before job 2 can fill it.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := sv.Submit(quickSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 3: got %v, want ErrQueueFull", err)
	}
	if m := sv.Metrics(); m.Shed != 1 || m.Submitted != 2 {
		t.Errorf("metrics %+v, want Shed=1 Submitted=2", m)
	}

	close(gate)
	waitJob(t, sv, 1, StateCompleted)
	waitJob(t, sv, 2, StateCompleted)
	shutdown(t, sv)
}

func TestJobTimeoutFailsTerminally(t *testing.T) {
	timeoutC := make(chan time.Time, 1)
	sv, _ := newTestServer(t, Config{Workers: 1, JobTimeout: 5 * time.Second, MaxRetries: 3})
	sv.after = func(time.Duration) <-chan time.Time { return timeoutC }
	// The runner behaves like a run that never finishes: it only returns
	// once the control surface interrupts it.
	sv.runner = func(_ experiment.Scenario, opts experiment.ControlOptions) (experiment.Result, error) {
		<-opts.Interrupt
		return experiment.Result{}, fmt.Errorf("%w at t=1ms", experiment.ErrInterrupted)
	}
	sv.Start()

	timeoutC <- time.Time{}
	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	info := waitJob(t, sv, 1, StateFailed)
	if !strings.Contains(info.Error, "timed out") {
		t.Errorf("error %q does not mention the timeout", info.Error)
	}
	if info.Attempts != 1 {
		t.Errorf("attempts = %d; a timeout must not be retried", info.Attempts)
	}
	if m := sv.Metrics(); m.TimedOut != 1 || m.Retried != 0 {
		t.Errorf("metrics %+v, want TimedOut=1 Retried=0", m)
	}
	shutdown(t, sv)
}

func TestRetryBackoffIsBoundedAndDeterministic(t *testing.T) {
	sv, _ := newTestServer(t, Config{Workers: 1, MaxRetries: 2, RetryBackoff: 250 * time.Millisecond})
	var mu sync.Mutex
	var sleeps []time.Duration
	sv.sleep = func(d time.Duration) bool {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
		return true
	}
	attempts := 0
	sv.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
		attempts++ // single worker: no concurrent calls
		if attempts < 3 {
			return experiment.Result{}, errors.New("transient fault")
		}
		return experiment.Result{}, nil
	}
	sv.Start()

	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	info := waitJob(t, sv, 1, StateCompleted)
	if info.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", info.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond}
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Errorf("backoff sleeps %v, want %v", sleeps, want)
	}
	if m := sv.Metrics(); m.Retried != 2 {
		t.Errorf("Retried = %d, want 2", m.Retried)
	}
	shutdown(t, sv)
}

func TestRetriesExhaustedFailsJob(t *testing.T) {
	sv, _ := newTestServer(t, Config{Workers: 1, MaxRetries: 2})
	sv.sleep = func(time.Duration) bool { return true }
	sv.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
		return experiment.Result{}, errors.New("persistent fault")
	}
	sv.Start()

	if _, err := sv.Submit(quickSpec()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	info := waitJob(t, sv, 1, StateFailed)
	if info.Attempts != 3 {
		t.Errorf("attempts = %d, want MaxRetries+1 = 3", info.Attempts)
	}
	if !strings.Contains(info.Error, "giving up after 3") {
		t.Errorf("error %q does not report the bounded give-up", info.Error)
	}
	shutdown(t, sv)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	sv, _ := newTestServer(t, Config{QueueCap: 2, Workers: 1})
	release := make(chan struct{})
	started := make(chan uint64, 4)
	sv.runner = func(_ experiment.Scenario, opts experiment.ControlOptions) (experiment.Result, error) {
		select {
		case <-release:
			return experiment.Result{}, nil
		case <-opts.Interrupt:
			return experiment.Result{}, fmt.Errorf("%w at t=1ms", experiment.ErrInterrupted)
		}
	}
	sv.hooks.beforeAttempt = func(id uint64, attempt int) { started <- id }
	sv.Start()

	if _, err := sv.Submit(quickSpec()); err != nil { // job 1: will be running
		t.Fatalf("submit 1: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	if _, err := sv.Submit(quickSpec()); err != nil { // job 2: queued behind job 1
		t.Fatalf("submit 2: %v", err)
	}

	// Cancelling a queued job is immediate.
	if info, err := sv.Cancel(2); err != nil || info.State != StateCanceled {
		t.Fatalf("cancel queued: %v %v", info.State, err)
	}
	// Cancelling the running job interrupts it.
	if _, err := sv.Cancel(1); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitJob(t, sv, 1, StateCanceled)

	// The canceled queued job must never run.
	select {
	case id := <-started:
		t.Fatalf("job %d started after cancellation", id)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := sv.Cancel(1); !errors.Is(err, ErrConflict) {
		t.Errorf("cancel finished job: got %v, want ErrConflict", err)
	}
	if _, err := sv.Cancel(99); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown job: got %v, want ErrUnknownJob", err)
	}
	if m := sv.Metrics(); m.Canceled != 2 {
		t.Errorf("Canceled = %d, want 2", m.Canceled)
	}
	shutdown(t, sv)
}

func TestBuildScenarioRejections(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"unknown scenario", JobSpec{Scenario: "no-such-scenario"}},
		{"quick without scenario", JobSpec{Quick: true}},
		{"unknown defense", JobSpec{Scenario: "table2", Defense: "magic"}},
		{"invalid override", JobSpec{Scenario: "table2", DurationMs: ptr(-5.0)}},
	}
	for _, tc := range cases {
		if _, err := tc.spec.BuildScenario(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
	}
	// A job has no snapshot interval any more: a spec that sets one, negative
	// or not, is refused before it gets this far, by its unknown key.
	for _, body := range retiredKnobBodies {
		if _, err := decodeSpec(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), `"checkpointEveryMs"`) {
			t.Errorf("%s: decodeSpec returned %v, want an error naming the unknown field", body, err)
		}
	}
}

// retiredKnobBodies are submissions that set the per-job snapshot interval
// earlier builds took. Each must be refused as an unknown field.
var retiredKnobBodies = []string{
	`{"scenario":"table2","checkpointEveryMs":-1}`,
	`{"scenario":"table2","quick":true,"checkpointEveryMs":1e300}`,
	`{"scenario":"table2","quick":true,"checkpointEveryMs":0.001}`,
}

func TestBuildScenarioScalesRateLikeCLI(t *testing.T) {
	s, err := JobSpec{Rate: ptr(1e6)}.BuildScenario()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if got, want := s.Workload.AttackRate, 1e6/experiment.RateScale; got != want {
		t.Errorf("AttackRate = %v, want paper rate / RateScale = %v", got, want)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	sv, _ := newTestServer(t, Config{Workers: 1})
	sv.runner = func(experiment.Scenario, experiment.ControlOptions) (experiment.Result, error) {
		return experiment.Result{Name: "scripted"}, nil
	}
	sv.Start()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	if resp := post("/jobs", `{"scenario":"no-such"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/jobs", `{"scenario":"table2","bogusField":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// The service takes no snapshot interval: a spec that names one is a
	// 400 that says which key it does not know.
	for _, body := range retiredKnobBodies {
		resp := post("/jobs", body)
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field "checkpointEveryMs"`) {
			t.Errorf("retired knob %s: status %d, body %q; want 400 naming the unknown field", body, resp.StatusCode, msg)
		}
	}
	for _, body := range []string{
		`{"scenario":"table2"}{"scenario":"nope"}`,
		`{"scenario":"table2"} trailing garbage`,
	} {
		if resp := post("/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing data %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A body past the bound is refused before it is parsed to the end, and
	// nothing about it reaches the queue or the counters.
	before := sv.Metrics()
	huge := `{"scenario":"` + strings.Repeat("a", 2*maxSpecBytes) + `"}`
	if resp := post("/jobs", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status %d, want 413", resp.StatusCode)
	}
	if after := sv.Metrics(); after != before || len(sv.Jobs()) != 0 {
		t.Errorf("oversized spec left a trace: metrics %+v -> %+v, %d jobs", before, after, len(sv.Jobs()))
	}

	resp := post("/jobs", `{"scenario":"table2","quick":true,"durationMs":1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	waitJob(t, sv, info.ID, StateCompleted)

	resp = get(fmt.Sprintf("/jobs/%d", info.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status: %d", resp.StatusCode)
	}
	var got JobInfo
	json.NewDecoder(resp.Body).Decode(&got)
	if got.State != StateCompleted {
		t.Errorf("job view %+v is not completed", got)
	}

	resp = get(fmt.Sprintf("/jobs/%d/result", info.ID))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("result: status %d", resp.StatusCode)
	}
	var res experiment.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || res.Name != "scripted" {
		t.Errorf("result body: %v %v", res.Name, err)
	}

	if resp := get("/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	if resp := post("/drain", ""); resp.StatusCode != http.StatusAccepted {
		t.Errorf("drain: status %d, want 202", resp.StatusCode)
	}
	if resp := post("/jobs", `{"scenario":"table2","quick":true}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	var h Health
	resp = get("/healthz")
	json.NewDecoder(resp.Body).Decode(&h)
	if h.Status != "draining" {
		t.Errorf("health status %q, want draining", h.Status)
	}
	shutdown(t, sv)
}
