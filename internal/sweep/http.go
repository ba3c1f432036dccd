package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/harness"
)

// defaultWorkers sizes the in-process executor pool.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Handler returns the server's HTTP API:
//
//	GET  /healthz                       liveness probe
//	POST /api/plans                     submit a Spec, returns its Status
//	GET  /api/plans                     list plan statuses
//	GET  /api/plans/{id}                one plan's status
//	GET  /api/plans/{id}/events         NDJSON progress stream until done
//	GET  /api/plans/{id}/figures/{fig}  rendered figure text (409 until done)
//	GET  /api/cache                     cache traffic counters
//	POST /api/lease                     worker protocol: lease one cell
//	POST /api/complete                  worker protocol: report a cell done
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /api/plans", s.handleSubmit)
	mux.HandleFunc("GET /api/plans", s.handleList)
	mux.HandleFunc("GET /api/plans/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/plans/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/plans/{id}/figures/{figure}", s.handleFigure)
	mux.HandleFunc("GET /api/cache", s.handleCache)
	mux.HandleFunc("POST /api/lease", s.handleLease)
	mux.HandleFunc("POST /api/complete", s.handleComplete)
	return mux
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// maxBodyBytes bounds every request body the server decodes. The
// largest real plan spec — every figure, workload and a long seed list —
// is a few KiB, so 1 MiB is far above any legitimate request and still
// keeps a runaway or hostile client from making the server buffer an
// unbounded body.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the error response — 413 for an oversized body,
// 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "decoding %s: %v", what, err)
	return false
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeBody(w, r, "spec", &spec) {
		return
	}
	st, err := s.submit(spec, "", true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.wakeWorkers()
	writeJSON(w, http.StatusOK, submitResponse{Status: st})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	p, ok := s.plans[id]
	var st Status
	if ok {
		st = p.status()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no plan %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a plan's progress as NDJSON: one snapshot line,
// then one line per completed cell, closing when the plan is done.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, snapshot, ok := s.subscribe(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no plan %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.Encode(Event{Plan: snapshot.ID, Done: snapshot.Done, Total: snapshot.Total, State: snapshot.State})
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				return
			}
			enc.Encode(e)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// handleFigure renders one of a done plan's figures from the shared
// cache. 409 while the plan is still running: rendering would silently
// recompute cells inline, defeating the point of the sweep.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id, figure := r.PathValue("id"), strings.ToLower(r.PathValue("figure"))
	s.mu.Lock()
	p, ok := s.plans[id]
	var spec Spec
	var state string
	if ok {
		spec, state = p.spec, p.state()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no plan %q", id)
		return
	}
	inPlan := false
	for _, f := range spec.Figures {
		if strings.EqualFold(f, figure) {
			inPlan = true
		}
	}
	if !inPlan {
		httpError(w, http.StatusNotFound, "plan %s has no figure %q (has: %s)", id, figure, strings.Join(spec.Figures, ", "))
		return
	}
	switch state {
	case "running":
		httpError(w, http.StatusConflict, "plan %s still running; poll /api/plans/%s", id, id)
		return
	case "failed":
		httpError(w, http.StatusConflict, "plan %s failed; figure would be incomplete", id)
		return
	}
	o := spec.options()
	o.Cache = s.cache
	text, err := harness.RenderFigureText(figure, spec.Threads, o)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(text)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// handleLease hands one takeable cell to an external worker process;
// 204 when the queue is drained.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, "lease request", &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = "remote-" + r.RemoteAddr
	}
	j := s.take(req.Worker)
	if j == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, leaseResponse{Key: j.key, Cell: j.cell, Config: j.cfg})
}

// handleComplete finishes a leased cell. The server verifies the result
// actually landed in the shared cache before trusting the report; a
// complete without a blob re-queues the cell instead.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, "complete request", &req) {
		return
	}
	switch {
	case req.Failed:
		s.fail(req.Key, req.Error)
	case s.cache.Contains(req.Key):
		s.finish(req.Key, req.Cached)
	default:
		s.fail(req.Key, fmt.Sprintf("worker %s reported %s complete but the cache has no blob", req.Worker, req.Key))
	}
	s.wakeWorkers()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
