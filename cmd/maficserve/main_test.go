package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mafic/internal/serve"
)

// TestMain doubles as the server process for the kill -9 smoke test: when
// re-executed with MAFICSERVE_SMOKE_CHILD set, the test binary runs the real
// maficserve main loop instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("MAFICSERVE_SMOKE_CHILD") == "1" {
		if err := run(strings.Fields(os.Getenv("MAFICSERVE_SMOKE_ARGS"))); err != nil {
			fmt.Fprintln(os.Stderr, "maficserve child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeKillNineRecovery is the service-mode crash-recovery acceptance
// test: start the server, submit a long job, kill -9 the whole process while
// the job runs, restart it over the same store, and require (a) the restarted
// server recovers the job, runs it again and completes it, (b) its
// result.json is bit-identical to an uninterrupted run of the same spec on the
// same server, and (c) the server then drains and exits cleanly.
func TestServeKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test re-execs the test binary; skipped in -short")
	}
	store := t.TempDir()
	args := fmt.Sprintf("-addr 127.0.0.1:0 -store %s -workers 1", store)
	// Thirty simulated seconds keep quick table2 running for about a third of
	// a second of wall time on one core (seconds under the race detector), so
	// the kill lands mid-run; the restarted server's Recovered count checks
	// that it did.
	spec := `{"scenario":"table2","quick":true,"durationMs":30000}`

	child := startChild(t, args)
	base := waitAddr(t, store)

	var submitted serve.JobInfo
	postJSON(t, base+"/jobs", spec, http.StatusAccepted, &submitted)
	if submitted.ID != 1 {
		t.Fatalf("first job got ID %d", submitted.ID)
	}

	// Once the job runs, kill the process without any chance to clean up.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		var info serve.JobInfo
		getJSON(t, base+"/jobs/1", &info)
		if info.State == serve.StateCompleted {
			t.Fatal("job finished before the kill; widen the window (longer durationMs)")
		}
		if info.State == serve.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no handlers, no drain
		t.Fatalf("kill -9: %v", err)
	}
	child.Wait()
	if err := os.Remove(filepath.Join(store, "addr")); err != nil {
		t.Fatalf("remove stale addr file: %v", err)
	}

	// A fresh process over the same store must recover the job, which the
	// kill left unfinished, and run it to completion.
	child2 := startChild(t, args)
	base = waitAddr(t, store)
	var health serve.Health
	getJSON(t, base+"/healthz", &health)
	if health.Metrics.Recovered != 1 {
		t.Fatalf("the restarted server recovered %d jobs, want the one the kill interrupted", health.Metrics.Recovered)
	}
	waitCompleted(t, base, 1)
	crashed := getBytes(t, base+"/jobs/1/result")

	// The same spec run uninterrupted on the same server must produce the
	// same bytes.
	var ref serve.JobInfo
	postJSON(t, base+"/jobs", spec, http.StatusAccepted, &ref)
	waitCompleted(t, base, ref.ID)
	uninterrupted := getBytes(t, base+fmt.Sprintf("/jobs/%d/result", ref.ID))

	if !bytes.Equal(crashed, uninterrupted) {
		t.Errorf("crash-recovered result differs from uninterrupted run:\n--- recovered ---\n%s\n--- reference ---\n%s",
			crashed, uninterrupted)
	}

	// Drain over HTTP and require a clean exit.
	postJSON(t, base+"/drain", "", http.StatusAccepted, nil)
	done := make(chan error, 1)
	go func() { done <- child2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drained server exited uncleanly: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Error("drained server never exited")
	}
}

func startChild(t *testing.T, args string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"MAFICSERVE_SMOKE_CHILD=1",
		"MAFICSERVE_SMOKE_ARGS="+args,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server child: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitAddr polls the store's addr file, written once the child is listening.
func waitAddr(t *testing.T, store string) string {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(filepath.Join(store, "addr"))
		if err == nil && len(bytes.TrimSpace(data)) > 0 {
			return "http://" + string(bytes.TrimSpace(data))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never published its address")
	return ""
}

func waitCompleted(t *testing.T, base string, id uint64) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		var info serve.JobInfo
		getJSON(t, fmt.Sprintf("%s/jobs/%d", base, id), &info)
		switch info.State {
		case serve.StateCompleted:
			return info
		case serve.StateFailed, serve.StateCanceled:
			t.Fatalf("job %d reached %s (error %q)", id, info.State, info.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %d never completed", id)
	return serve.JobInfo{}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return data
}

func postJSON(t *testing.T, url, body string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, data)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}
