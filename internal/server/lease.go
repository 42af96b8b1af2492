package server

import (
	"encoding/json"
	"net/http"
)

// LeaseExecuteRequest is the body of POST /v1/lease/execute: a fleet
// coordinator (internal/fleet) executing one leased sweep cell on this
// worker, synchronously. The cell rides as a full SimulateRequest; Hash,
// when set, must match the canonical hash this worker computes for it — a
// cheap end-to-end integrity check that the coordinator and worker agree
// on the routing key before any simulation runs.
type LeaseExecuteRequest struct {
	// JobID is the coordinator's job identity, echoed back verbatim.
	JobID string `json:"job_id"`
	// Attempt is the coordinator's 1-based attempt number (diagnostic).
	Attempt int `json:"attempt,omitempty"`
	// Hash is the canonical simulate hash the coordinator routed by.
	Hash string `json:"hash,omitempty"`
	// Simulate is the cell to execute.
	Simulate SimulateRequest `json:"simulate"`
}

// LeaseExecuteResponse is the worker's answer: terminal job state plus the
// marshaled SimulateResult. CacheHit reports that the result was served
// from the worker's LRU without re-simulation — how a retried lease whose
// first response was lost in flight avoids recomputing.
type LeaseExecuteResponse struct {
	JobID    string          `json:"job_id"`
	WorkerID string          `json:"worker_id,omitempty"`
	Hash     string          `json:"hash"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// handleLeaseExecute admits the cell through the same path as
// POST /v1/simulate — result cache, in-flight dedup, bounded-queue
// admission with jittered 429 backpressure — and blocks until it is
// terminal. Cancellation of the coordinator's request abandons the wait
// but not the job: it finishes into the cache, so the inevitable retry is
// a hit, not a second simulation.
func (s *Server) handleLeaseExecute(w http.ResponseWriter, r *http.Request) error {
	var req LeaseExecuteRequest
	if err := DecodeJSON(r, &req); err != nil {
		return err
	}
	n, err := req.Simulate.Normalized()
	if err != nil {
		return Errorf(http.StatusBadRequest, "invalid lease cell: %v", err)
	}
	hash, err := hashTagged("simulate", n)
	if err != nil {
		return Errorf(http.StatusInternalServerError, "hash lease cell: %v", err)
	}
	if req.Hash != "" && req.Hash != hash {
		return Errorf(http.StatusBadRequest,
			"lease hash mismatch: coordinator routed by %.12s but the cell hashes to %.12s", req.Hash, hash)
	}
	job, aerr := s.admit(&Job{Kind: "simulate", Hash: hash, simReq: &n})
	if aerr != nil {
		return aerr
	}
	s.logf("job %s: leased as %s (attempt %d)", job.ID, req.JobID, req.Attempt)
	v, err := job.wait(r.Context())
	if err != nil {
		return nil // coordinator went away; the job finishes into the cache
	}
	resp := LeaseExecuteResponse{
		JobID:    req.JobID,
		WorkerID: s.cfg.WorkerID,
		Hash:     hash,
		State:    v.State,
		CacheHit: v.CacheHit,
		Result:   v.Result,
	}
	if v.Err != nil {
		resp.Error = v.Err.Error()
	}
	WriteJSON(w, http.StatusOK, resp)
	return nil
}
