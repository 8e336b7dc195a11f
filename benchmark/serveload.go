package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"mafic/internal/experiment"
	"mafic/internal/serve"
)

// pollEvery is how long the client waits between two status polls.
const pollEvery = 2 * time.Millisecond

// serveInstance drives an in-process serve.Server behind net/http on the
// loopback interface (no real link is crossed) with one closed-loop client:
// submit, poll until terminal, fetch result.json.
type serveInstance struct {
	e   *env
	dir string
	sv  *serve.Server
	srv *http.Server
	// served receives the HTTP server's exit so close can wait for it.
	served chan error
	base   string
	client *http.Client

	// refs are the result.json bytes of an uninterrupted run per slot of
	// the job cycle; plainS is how long each of those plain runs took.
	refs   [][]byte
	plainS []float64

	// Per-job client observations, in job order.
	submitMs []float64
	polls    []int
	infos    []serve.JobInfo
}

func openServe(e *env) (instance, error) {
	return &serveInstance{e: e}, nil
}

func (s *serveInstance) spec(i int) serve.JobSpec {
	seed := s.e.seed + int64(i%s.e.slots)
	return serve.JobSpec{Scenario: "table2", Quick: s.e.quick, Seed: &seed}
}

func (s *serveInstance) scenarios() []experiment.Scenario {
	// The spec names a catalog entry and a seed, which always validates.
	sc, _ := s.spec(0).BuildScenario()
	return []experiment.Scenario{sc}
}

func (s *serveInstance) start() error {
	dir, err := os.MkdirTemp(s.e.tmp, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.sv, err = serve.New(serve.Config{Dir: dir, Workers: 1, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	s.sv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.sv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Timeout: 30 * time.Second}
	return nil
}

func (s *serveInstance) prepare() error {
	for k := 0; k < s.e.slots; k++ {
		sc, err := s.spec(k).BuildScenario()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := experiment.Run(sc)
		if err != nil {
			return fmt.Errorf("reference run %d: %w", k, err)
		}
		s.plainS = append(s.plainS, time.Since(t0).Seconds())
		if err := checkDefended(res, true); err != nil {
			return err
		}
		// The service writes result.json as indented JSON plus a newline.
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		s.refs = append(s.refs, append(data, '\n'))
	}
	return nil
}

// request performs one HTTP exchange and returns the body of a response
// with the wanted status.
func (s *serveInstance) request(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *serveInstance) run(i, parent int) (any, error) {
	tr := s.e.tr
	body, err := json.Marshal(s.spec(i))
	if err != nil {
		return nil, err
	}

	sp := tr.begin(parent, "submit")
	t0 := time.Now()
	data, err := s.request(http.MethodPost, "/jobs", body, http.StatusAccepted)
	s.submitMs = append(s.submitMs, float64(time.Since(t0))/1e6)
	tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	var info serve.JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("decode submit response: %w", err)
	}

	path := fmt.Sprintf("/jobs/%d", info.ID)
	polls := 0
	sp = tr.begin(parent, "poll")
	for {
		time.Sleep(pollEvery)
		polls++
		data, err = s.request(http.MethodGet, path, nil, http.StatusOK)
		if err != nil {
			break
		}
		if err = json.Unmarshal(data, &info); err != nil {
			break
		}
		if info.State != serve.StateQueued && info.State != serve.StateRunning {
			break
		}
	}
	tr.end(sp, int64(polls))
	s.polls = append(s.polls, polls)
	s.infos = append(s.infos, info)
	if err != nil {
		return nil, err
	}
	if info.State != serve.StateCompleted {
		return nil, fmt.Errorf("job %d ended %s: %s", info.ID, info.State, info.Error)
	}

	sp = tr.begin(parent, "fetch")
	result, err := s.request(http.MethodGet, path+"/result", nil, http.StatusOK)
	tr.end(sp, int64(len(result)))
	return result, err
}

func (s *serveInstance) check(i int, out any) error {
	if !bytes.Equal(out.([]byte), s.refs[i%s.e.slots]) {
		return errors.New("result.json differs from the uninterrupted reference run")
	}
	return nil
}

// close stops the HTTP server and the job server, waits for both, and
// removes the store.
func (s *serveInstance) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.sv != nil {
		errs = append(errs, s.sv.Shutdown(ctx))
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}
