// Package fleet promotes the single-process serving daemon to a
// fault-tolerant fleet: a coordinator (cmd/coscale-fleet) registers
// coscale-serve workers by heartbeat TTL lease, shards sweep cells across
// them by consistent hashing over the existing canonical sha256 request
// hash, and hands out work as leases that are reclaimed and retried — with
// exponential backoff, deterministic jitter and a per-job attempt cap —
// when a worker dies, times out, or returns a transport error.
//
// Jobs and their committed results flow through a crash-safe append-only
// JSON-lines journal (fsync on commit, torn-tail recovery on replay), so a
// coordinator restart resumes in-flight sweeps without recomputing finished
// scenarios. Degraded modes are explicit: zero live workers sheds new
// sweeps with 503/Retry-After, a shrunken fleet rebalances outstanding
// leases onto the survivors, and partial sweep results are queryable while
// the remainder retries.
//
// The PR-3 fault philosophy extends to the network: ChaosPlan derives every
// injection decision (connection refusal, response drop, latency spike,
// mid-stream cut, heartbeat loss) as a pure splitmix64 function of
// (seed, event key), so a chaos run is bit-replayable regardless of
// goroutine interleaving. See DESIGN.md §12.
package fleet

import (
	"encoding/json"
	"fmt"
	"time"

	"coscale/internal/server"
)

// JobSpec is one unit of leased work: a single sweep cell, executed on a
// worker via POST /v1/lease/execute. Hash is the canonical simulate hash of
// the cell — the routing key on the ring and the worker-side dedup/cache
// key, so a retried job that already executed anywhere is served from cache
// rather than recomputed.
type JobSpec struct {
	ID       string                 `json:"id"`
	Hash     string                 `json:"hash"`
	Attempt  int                    `json:"attempt"`
	Simulate server.SimulateRequest `json:"simulate"`
}

// JobResult is a worker's committed answer to a JobSpec.
type JobResult struct {
	ID       string          `json:"id"`
	Hash     string          `json:"hash"`
	WorkerID string          `json:"worker_id,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Result   json.RawMessage `json:"result"`
}

// Job states, the lease state machine: pending → leased → done, with
// leased → pending on a failed attempt (until the attempt cap) and
// pending/leased → failed at the cap.
const (
	JobPending = "pending"
	JobLeased  = "leased"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job is the coordinator's record of one sweep cell. The journal is the
// source of truth for Attempts, State and Result; scheduling fields
// (NotBefore, Worker) are reconstructed in memory.
type Job struct {
	ID      string
	SweepID string
	Index   int // cell index within the sweep, the response row order
	Hash    string
	Cell    server.SimulateRequest

	State     string
	Attempts  int       // lease records written so far
	Worker    string    // current lessee while leased
	NotBefore time.Time // earliest next dispatch (backoff), in-memory only
	Result    json.RawMessage
	Err       string
}

// Sweep groups the jobs of one submitted sweep request.
type Sweep struct {
	ID   string
	Req  server.SweepRequest
	Jobs []*Job // cell order

	open int // jobs neither done nor failed; the sweep retires at zero
}

// done/failed/pending tallies for status rendering.
func (s *Sweep) counts() (done, failed, leased int) {
	for _, j := range s.Jobs {
		switch j.State {
		case JobDone:
			done++
		case JobFailed:
			failed++
		case JobLeased:
			leased++
		}
	}
	return
}

// State reports the sweep's aggregate state: "done" when every cell
// committed, "failed" when any cell exhausted its attempts, else "running".
func (s *Sweep) State() string {
	done, failed, _ := s.counts()
	switch {
	case failed > 0:
		return "failed"
	case done == len(s.Jobs):
		return "done"
	}
	return "running"
}

// Backoff returns the delay before attempt n (1-based: the delay scheduled
// after the n-th attempt failed) of the job identified by hash:
// exponential from base with a deterministic jitter in [0, base) drawn by
// splitmix64 from (hash, n), capped at max. A pure function, so replay and
// the lint's determinism discipline hold by construction.
func Backoff(hash string, n int, base, max time.Duration) time.Duration {
	if n < 1 {
		n = 1
	}
	d := base << uint(n-1)
	if d > max || d <= 0 { // <=0: shift overflow
		d = max
	}
	j := time.Duration(jitterFrac(hashKey("backoff", hash, uint64(n))) * float64(base))
	if d+j > max {
		return max
	}
	return d + j
}

// fmtJobID builds the canonical job ID for a sweep cell.
func fmtJobID(sweepID string, index int) string {
	return fmt.Sprintf("%s/%d", sweepID, index)
}
