package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/savat"
)

// API wire shapes. The campaign spec itself is savat.CampaignSpec; the
// progress events are engine.ProgressEvent — both pinned elsewhere.

// SubmitRequest is the body of POST /v1/campaigns.
type SubmitRequest struct {
	// Spec is the campaign to run (required).
	Spec json.RawMessage `json:"spec"`
	// Tenant and Priority feed the scheduler (see SubmitOptions).
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// listResponse is the body of GET /v1/campaigns.
type listResponse struct {
	Campaigns []Job `json:"campaigns"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler serves the campaign API:
//
//	POST   /v1/campaigns              submit a campaign spec → job
//	GET    /v1/campaigns              list jobs
//	GET    /v1/campaigns/{id}         job status, stats, health
//	GET    /v1/campaigns/{id}/events  progress stream (NDJSON; SSE with
//	                                  Accept: text/event-stream)
//	GET    /v1/campaigns/{id}/result  completed job's matrix
//	DELETE /v1/campaigns/{id}         cancel (finished cells stay cached)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	return mux
}

// maxSubmitBytes bounds a POST /v1/campaigns body. A campaign spec is
// well under 4 KiB even with every event and a long countermeasure
// chain, so the bound only ever stops a client that would otherwise
// make the daemon buffer an arbitrarily large request.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("service: request body: %w", err))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`service: request body needs a "spec"`))
		return
	}
	spec, err := parseSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jb, err := s.Submit(spec, SubmitOptions{Tenant: req.Tenant, Priority: req.Priority})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, jb)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listResponse{Campaigns: s.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, jb)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, jb)
}

// handleEvents streams the job's progress events: history first, then
// live, ending when the job reaches a terminal state. Plain requests
// get NDJSON (one engine.ProgressEvent per line); Accept:
// text/event-stream gets the same objects as SSE data frames.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, stop, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	defer stop()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			if sse {
				if _, err := fmt.Fprint(w, "data: "); err != nil {
					return
				}
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				if _, err := fmt.Fprintln(w); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// parseSpec runs the raw spec through the same strict parse/validate
// path as spec files, so the API and the CLI reject identical inputs
// with identical errors.
func parseSpec(raw json.RawMessage) (savat.CampaignSpec, error) {
	return savat.ParseCampaignSpec(raw)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusFor maps service errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
