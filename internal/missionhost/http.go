package missionhost

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// maxSpecBytes bounds a POST /missions body; an embedded scenario
// document fits comfortably.
const maxSpecBytes = 1 << 20

// Handler returns the multi-mission HTTP surface:
//
//	POST   /missions              create (strict Spec JSON) -> 201 Info
//	GET    /missions              list                      -> []Info
//	GET    /missions/{id}         directory entry           -> Info
//	DELETE /missions/{id}         remove                    -> 204
//	GET    /missions/{id}/status  rendered snapshot (one render per snapshot)
//	GET    /missions/{id}/stream  SSE snapshot stream (drop-oldest)
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /missions", h.handleCreate)
	mux.HandleFunc("GET /missions", h.handleList)
	mux.HandleFunc("GET /missions/{id}", h.handleInfo)
	mux.HandleFunc("DELETE /missions/{id}", h.handleDelete)
	mux.HandleFunc("GET /missions/{id}/status", h.handleStatus)
	mux.HandleFunc("GET /missions/{id}/stream", h.handleStream)
	return mux
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrDuplicate):
		code = http.StatusConflict
	case errors.Is(err, ErrRegistryFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (h *Host) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, fmt.Errorf("missionhost: spec larger than %d bytes", maxSpecBytes))
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	info, err := h.Create(spec)
	if err != nil {
		if errors.Is(err, ErrDuplicate) || errors.Is(err, ErrRegistryFull) || errors.Is(err, ErrClosed) {
			httpError(w, err)
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		}
		return
	}
	w.Header().Set("Location", "/missions/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

func (h *Host) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.List())
}

func (h *Host) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := h.Info(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *Host) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := h.Delete(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Host) handleStatus(w http.ResponseWriter, r *http.Request) {
	body, err := h.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (h *Host) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, errors.New("missionhost: streaming unsupported by this connection"))
		return
	}
	sub, err := h.Subscribe(r.PathValue("id"), 16)
	if err != nil {
		httpError(w, err)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case snap, open := <-sub.C():
			if !open {
				return
			}
			// The render already ends in the newline that, with the
			// one after it, closes the SSE event.
			body, _, err := sub.m.render(snap)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: snapshot\nid: %d\ndata: %s\n", snap.Seq, body); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
