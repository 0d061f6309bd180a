package service

import (
	"errors"
	"io"
	"net/http"

	"instrsample/internal/experiment"
)

// CAS endpoint metrics.
const (
	MetricCASHits     = "cas.get.hit"      // counter: GET /v1/cas served
	MetricCASMisses   = "cas.get.miss"     // counter: GET /v1/cas 404s
	MetricCASStored   = "cas.put.stored"   // counter: PUT /v1/cas accepted
	MetricCASRejected = "cas.put.rejected" // counter: PUT /v1/cas integrity rejects
)

// The CAS endpoints expose a result store as a network content-addressed
// store (DESIGN.md §15): GET serves an entry's raw stored bytes by
// address, PUT replicates an entry a peer computed. isampd serves its
// disk cache here and isampfleet its CAS replica (the Executor picks the
// store), so any node's warm cache benefits the whole fleet. A PUT is
// verified against the address before it touches the store — a receiver
// never trusts the sender — and a node without a store answers 404 for
// the whole surface.

// casAddr validates a CAS request against store: it answers 404 (no
// store) or 400 (malformed address) itself and reports false, or
// returns the {addr} path value.
func casAddr(w http.ResponseWriter, r *http.Request, store *experiment.Cache) (string, bool) {
	if store == nil {
		writeErr(w, http.StatusNotFound, "no cache configured")
		return "", false
	}
	addr := r.PathValue("addr")
	if !experiment.ValidAddr(addr) {
		writeErr(w, http.StatusBadRequest, "invalid CAS address %q", addr)
		return "", false
	}
	return addr, true
}

func (s *Server) handleCASGet(w http.ResponseWriter, r *http.Request) {
	store, _ := s.exec.CAS()
	addr, ok := casAddr(w, r, store)
	if !ok {
		return
	}
	data, ok := store.GetAddr(addr)
	if !ok {
		s.reg.Counter(MetricCASMisses).Inc()
		writeErr(w, http.StatusNotFound, "no entry at %s", addr)
		return
	}
	s.reg.Counter(MetricCASHits).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client went away
}

// handleCASPut stores a replicated entry. PutAddr verifies it once: an
// integrity failure is the sender's fault (422, counted as a reject);
// any other failure is the store's (500).
func (s *Server) handleCASPut(w http.ResponseWriter, r *http.Request) {
	store, rejectMetric := s.exec.CAS()
	addr, ok := casAddr(w, r, store)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "body: %v", err)
		return
	}
	if err := store.PutAddr(addr, body); err != nil {
		if errors.Is(err, experiment.ErrCASIntegrity) {
			s.reg.Counter(rejectMetric).Inc()
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	s.reg.Counter(MetricCASStored).Inc()
	writeJSON(w, http.StatusOK, map[string]string{"stored": addr})
}
