package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP API:
//
//	GET  /healthz            liveness, queue depth, per-state counts, metrics
//	GET  /jobs               every job in submission order
//	POST /jobs               submit a JobSpec; 202 on accept, 503 on shed/drain, 413 past maxSpecBytes
//	GET  /jobs/{id}          one job's status
//	GET  /jobs/{id}/result   a completed job's result: the raw result.json bytes
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	POST /drain              begin shutdown: snapshot in-flight jobs and park
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealth)
	mux.HandleFunc("GET /jobs", sv.handleJobs)
	mux.HandleFunc("POST /jobs", sv.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", sv.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", sv.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", sv.handleCancel)
	mux.HandleFunc("POST /drain", sv.handleDrain)
	return mux
}

// Health is the GET /healthz response body.
type Health struct {
	Status     string           `json:"status"` // "ok" or "draining"
	QueueDepth int              `json:"queueDepth"`
	Jobs       map[JobState]int `json:"jobs"`
	Metrics    Metrics          `json:"metrics"`
}

func (sv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	h := Health{
		Status:     "ok",
		QueueDepth: len(sv.queue),
		Jobs:       make(map[JobState]int),
		Metrics:    sv.m,
	}
	if sv.drained {
		h.Status = "draining"
	}
	for _, j := range sv.jobs {
		h.Jobs[j.state]++
	}
	sv.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

func (sv *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sv.Jobs())
}

// maxSpecBytes bounds the body of a POST /jobs. A JobSpec is a few hundred
// bytes; the bound only keeps a client from making the service buffer an
// arbitrary amount.
const maxSpecBytes = 1 << 20

// decodeSpec parses a POST /jobs body. Unknown fields are an error: a
// misspelt override must not silently run the catalog's own value. So is
// anything after the spec but white space: a second value or stray text
// means the client sent something other than what would run.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return spec, nil
	case nil:
		return spec, errors.New("data after the job spec")
	default:
		return spec, err
	}
}

func (sv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("job spec exceeds %d bytes", maxSpecBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "invalid job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	info, err := sv.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (sv *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	info, found := sv.Job(id)
	if !found {
		writeErr(w, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (sv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	data, err := sv.ResultBytes(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (sv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	info, err := sv.Cancel(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (sv *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	sv.Drain()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

func pathID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "invalid job id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps the package's sentinel errors onto HTTP status codes.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	}
	http.Error(w, err.Error(), status)
}
