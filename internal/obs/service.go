package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"aiac/internal/report"
)

// Service is the solver-as-a-service control plane: a run registry plus a
// fair-queuing scheduler behind an HTTP API.
//
//	POST   /runs             submit a RunSpec, returns {"id": "<ULID>"}
//	GET    /runs             list runs (?tenant=, ?state= filters)
//	GET    /runs/{id}        one run's record
//	DELETE /runs/{id}        cancel a queued or running run
//	GET    /runs/{id}/events live/replayed dashboard frames over SSE
//	GET    /runs/{id}/report the rendered ASCII dashboard
//	GET    /healthz          liveness: process is up
//	GET    /readyz           readiness: registry scanned, scheduler accepting
type Service struct {
	reg   *Registry
	sched *Scheduler
	ready atomic.Bool
}

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Root is the registry directory (required).
	Root      string
	Scheduler SchedulerConfig
}

// NewService opens (and rescans) the registry and starts the scheduler.
func NewService(cfg ServiceConfig) (*Service, error) {
	reg, err := OpenRegistry(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Service{reg: reg, sched: NewScheduler(reg, cfg.Scheduler)}
	s.ready.Store(true)
	return s, nil
}

// Registry exposes the service's run registry (tests, embedders).
func (s *Service) Registry() *Registry { return s.reg }

// Scheduler exposes the service's scheduler.
func (s *Service) Scheduler() *Scheduler { return s.sched }

// Close drains the worker pool (running solves finish; queued runs stay on
// disk and are marked lost on the next start).
func (s *Service) Close() {
	s.ready.Store(false)
	s.sched.Close()
}

// Register installs the control-plane routes on mux.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":  true,
		"queued": s.sched.QueueDepths(),
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	id, err := s.sched.Submit(spec)
	if err != nil {
		var full ErrQueueFull
		if errors.As(err, &full) {
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	state := RunState(r.URL.Query().Get("state"))
	writeJSON(w, http.StatusOK, s.reg.List(tenant, state))
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	if rec.State.Terminal() {
		writeError(w, http.StatusConflict, "run is already %s", rec.State)
		return
	}
	if !s.sched.Cancel(id) {
		// Lost the race with completion.
		writeError(w, http.StatusConflict, "run just finished")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "canceling"})
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	b, err := os.ReadFile(filepath.Join(s.reg.Dir(id), "report.txt"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no report for run in state %s", rec.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(b)
}

// handleTrace serves a run's execution trace (the trace.csv sidecar — for
// dist runs, the federated cross-process stream). 404s distinguish an
// unknown run from an untraced or unfinished one.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	b, err := os.ReadFile(filepath.Join(s.reg.Dir(id), "trace.csv"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no trace for run in state %s (submit with \"trace\": true)", rec.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Write(b)
}

// handleMetrics exposes the control plane's own service metrics (scheduler
// queue depths, running counts, sheds, submit-to-start latency) in the
// Prometheus text format. This is the service-level scrape; per-run solver
// metrics live on each run's artifacts.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.sched.WritePrometheus(w)
}

// sseKeepalive is how long a live event stream may stay silent before it gets
// a comment frame, so that idle proxies keep it open. It is a variable only
// so that the keepalive test can shorten it.
var sseKeepalive = 15 * time.Second

// handleEvents streams a run's dashboard frames as Server-Sent Events. A
// finished run replays its stored telemetry through report.Stream — a pure
// function of the artifact, so the bytes are deterministic. A queued or
// running run streams the live buffer as telemetry arrives and ends when
// the run reaches a terminal state.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}

	ls := s.sched.Stream(id)
	if ls == nil {
		// Terminal: canonical replay from the stored artifact.
		run, err := s.reg.LoadRun(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "run %s has no telemetry (state %s)", id, rec.State)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		report.WriteSSEStream(w, report.Stream(run))
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fl, _ := w.(http.Flusher)
	notify := ls.subscribe()
	defer ls.unsubscribe(notify)
	// One timer per stream: a time.After per wait would keep its timer alive
	// until it fired (go.mod says go 1.22), long after the stream had ended.
	keepalive := time.NewTimer(sseKeepalive)
	defer keepalive.Stop()

	sent := 0
	for {
		frames, closed := ls.snapshot(sent)
		for _, f := range frames {
			if err := report.WriteSSE(w, f); err != nil {
				return
			}
		}
		sent += len(frames)
		if len(frames) > 0 && fl != nil {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			if fl != nil {
				fl.Flush()
			}
			keepalive.Reset(sseKeepalive)
		}
	}
}

// ServeService binds addr and serves the control plane (plus pprof) in the
// background, readiness reported only after the listener is bound: a
// 200 /readyz implies POST /runs will be accepted.
func ServeService(addr string, svc *Service) (*Server, error) {
	mux := http.NewServeMux()
	svc.Register(mux)
	registerPprof(mux)
	return serveMux(addr, mux)
}
