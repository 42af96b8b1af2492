package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"coscale/internal/server"
)

// Store is the crash-safe job store: an in-memory sweep/job table mirrored
// into the append-only journal. Every state transition is journaled before
// it takes effect in memory. The commit barrier sits at the status read:
// Status fsyncs the journal before it shows any cell, so a result that a
// client has seen is never lost and — because replay restores Done state —
// never recomputed after a coordinator restart. A Store opened with an
// empty path is purely in-memory (tests, journal-less quickstarts).
//
// All mutable job state lives behind the store's lock; accessors hand out
// value snapshots (JobRef, SweepStatus), never shared pointers, so the
// coordinator's scheduler and dispatch goroutines cannot race the table.
//
// Memory is bounded by retention, not by history. A sweep retires once
// every one of its jobs is done or failed; the store keeps the newest
// retainSweeps retired sweeps for status queries and drops older ones
// entirely. The scheduler's scans walk only the active sweeps, so a pass
// costs O(active jobs) however many sweeps the store has seen.
type Store struct {
	mu      sync.Mutex
	j       *journal
	sweeps  map[string]*Sweep
	jobs    map[string]*Job
	order   []string // held sweep IDs, admission order
	active  []*Sweep // sweeps with a non-terminal job, admission order
	retired []string // finished sweep IDs held for status, oldest first
	nextSeq int      // next sweep sequence number
}

// retainSweeps is how many finished sweeps the store keeps after they
// retire. Sizing: a finished 96-cell sweep holds about 266 KB of results.
const retainSweeps = 16

// JobRef is a value snapshot of one job, safe to use outside the lock.
type JobRef struct {
	ID       string
	SweepID  string
	Index    int
	Hash     string
	Cell     server.SimulateRequest
	Attempts int
	Worker   string
}

// OpenStore opens (or creates) the store at path, replaying any existing
// journal. Jobs that were leased at crash time replay back to pending —
// their attempt already counted — so the scheduler redispatches them with
// the appropriate backoff; done jobs keep their committed results.
func OpenStore(path string) (*Store, error) {
	s := &Store{sweeps: map[string]*Sweep{}, jobs: map[string]*Job{}}
	if path == "" {
		return s, nil
	}
	j, recs, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	s.j = j
	for i, rec := range recs {
		if err := s.applyLocked(rec); err != nil {
			j.close()
			return nil, fmt.Errorf("fleet: journal replay record %d: %w", i, err)
		}
	}
	// Leased-at-crash jobs have no terminal record: schedule them again.
	for _, sw := range s.active {
		for _, job := range sw.Jobs {
			if job.State == JobLeased {
				job.State = JobPending
				job.Worker = ""
			}
		}
	}
	return s, nil
}

// Close syncs and releases the journal, so that everything committed before
// it survives a power loss too.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.j.sync(), s.j.close())
}

// Syncs reports how many fsyncs the journal has run.
func (s *Store) Syncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return 0
	}
	return s.j.syncs
}

// applyLocked folds one journal record into the in-memory table. It is the
// single interpretation of the journal format, shared between replay and
// live appends (live paths mutate through it after journaling), so
// retention drops the same sweeps on replay as it did live.
func (s *Store) applyLocked(rec record) error {
	switch rec.Type {
	case "sweep":
		if rec.Req == nil {
			return fmt.Errorf("sweep record %q missing request", rec.Sweep)
		}
		sw := &Sweep{ID: rec.Sweep, Req: *rec.Req}
		s.sweeps[sw.ID] = sw
		s.order = append(s.order, sw.ID)
		s.active = append(s.active, sw)
		if n, err := sweepSeq(sw.ID); err == nil && n >= s.nextSeq {
			s.nextSeq = n + 1
		}
	case "job":
		sw, ok := s.sweeps[rec.Sweep]
		if !ok {
			return fmt.Errorf("job %q references unknown sweep %q", rec.Job, rec.Sweep)
		}
		if rec.Cell == nil {
			return fmt.Errorf("job record %q missing cell", rec.Job)
		}
		job := &Job{
			ID: rec.Job, SweepID: rec.Sweep, Index: rec.Index,
			Hash: rec.Hash, Cell: *rec.Cell, State: JobPending,
		}
		s.jobs[job.ID] = job
		sw.Jobs = append(sw.Jobs, job)
		sw.open++
	case "lease":
		job, err := s.jobLocked(rec.Job)
		if err != nil {
			return err
		}
		job.State = JobLeased
		job.Worker = rec.Worker
		job.Attempts = rec.Attempt
	case "fail":
		job, err := s.jobLocked(rec.Job)
		if err != nil {
			return err
		}
		job.State = JobPending
		job.Worker = ""
		job.Err = rec.Err
	case "done":
		job, err := s.jobLocked(rec.Job)
		if err != nil {
			return err
		}
		s.finishLocked(job)
		job.State = JobDone
		job.Worker = ""
		job.Err = ""
		job.Result = rec.Result
	case "failed":
		job, err := s.jobLocked(rec.Job)
		if err != nil {
			return err
		}
		s.finishLocked(job)
		job.State = JobFailed
		job.Worker = ""
		job.Err = rec.Err
	default:
		return fmt.Errorf("unknown record type %q", rec.Type)
	}
	return nil
}

// finishLocked counts job, about to turn done or failed, out of its sweep.
// The sweep's last open job retires it: it leaves the active list and joins
// the retired FIFO, whose overflow drops the oldest retired sweep from the
// store entirely.
func (s *Store) finishLocked(job *Job) {
	if job.State == JobDone || job.State == JobFailed {
		return
	}
	sw := s.sweeps[job.SweepID]
	if sw.open--; sw.open > 0 {
		return
	}
	s.active = slices.DeleteFunc(s.active, func(a *Sweep) bool { return a == sw })
	s.retired = append(s.retired, sw.ID)
	if len(s.retired) <= retainSweeps {
		return
	}
	old := s.sweeps[s.retired[0]]
	s.retired = slices.Delete(s.retired, 0, 1)
	for _, j := range old.Jobs {
		delete(s.jobs, j.ID)
	}
	delete(s.sweeps, old.ID)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == old.ID })
}

// droppedLocked reports whether jobID belongs to a sweep that retention has
// already dropped: one admitted earlier (its sequence is below nextSeq) that
// the store no longer holds.
func (s *Store) droppedLocked(jobID string) bool {
	sweep, _, ok := strings.Cut(jobID, "/")
	if !ok {
		return false
	}
	n, err := sweepSeq(sweep)
	_, held := s.sweeps[sweep]
	return err == nil && n >= 0 && n < s.nextSeq && !held
}

func (s *Store) jobLocked(id string) (*Job, error) {
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("unknown job %q", id)
	}
	return job, nil
}

// sweepSeq parses the numeric sequence out of a sweep ID ("s12" → 12).
func sweepSeq(id string) (int, error) {
	return strconv.Atoi(strings.TrimPrefix(id, "s"))
}

func refOf(job *Job) JobRef {
	return JobRef{
		ID: job.ID, SweepID: job.SweepID, Index: job.Index,
		Hash: job.Hash, Cell: job.Cell, Attempts: job.Attempts, Worker: job.Worker,
	}
}

// AddSweep admits a normalized sweep: one job per cell, hashed with the
// canonical simulate hash, journaled (with fsync — admission is a promise;
// the fsync covers every record written before it too) before becoming
// visible. It returns the new sweep's ID and job count.
func (s *Store) AddSweep(req server.SweepRequest) (string, int, error) {
	cells := req.Cells()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("s%d", s.nextSeq)
	recs := make([]record, 0, len(cells)+1)
	reqCopy := req
	recs = append(recs, record{Type: "sweep", Sweep: id, Req: &reqCopy})
	for i := range cells {
		hash, err := cells[i].Hash()
		if err != nil {
			return "", 0, err
		}
		cell := cells[i]
		recs = append(recs, record{
			Type: "job", Sweep: id, Job: fmtJobID(id, i), Index: i,
			Hash: hash, Cell: &cell,
		})
	}
	if err := s.j.append(recs...); err != nil {
		return "", 0, err
	}
	if err := s.j.sync(); err != nil {
		return "", 0, err
	}
	for _, rec := range recs {
		if err := s.applyLocked(rec); err != nil {
			return "", 0, err
		}
	}
	return id, len(cells), nil
}

// Lease transitions a pending job to leased on worker, journaling the
// attempt, and returns the attempt number (1-based).
func (s *Store) Lease(jobID, worker string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.jobLocked(jobID)
	if err != nil {
		return 0, err
	}
	if job.State != JobPending {
		return 0, fmt.Errorf("job %q is %s, not pending", jobID, job.State)
	}
	rec := record{Type: "lease", Job: jobID, Worker: worker, Attempt: job.Attempts + 1}
	if err := s.j.append(rec); err != nil {
		return 0, err
	}
	if err := s.applyLocked(rec); err != nil {
		return 0, err
	}
	return job.Attempts, nil
}

// Fail records a failed attempt, without an fsync; a terminal failure
// becomes durable at the next Status read, as a Done does. Unless the
// attempt cap is reached the job returns to pending, not dispatchable
// before notBefore (the backoff); at the cap it fails terminally. A stale
// failure — the lease was already reclaimed and re-attempted, or the job
// committed — is ignored so it cannot clobber newer state, and so is a
// failure for a job whose sweep retention has dropped. Reports whether the
// job failed terminally.
func (s *Store) Fail(jobID string, attempt int, cause string, maxAttempts int, notBefore time.Time) (terminal bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.droppedLocked(jobID) {
		return false, nil
	}
	job, err := s.jobLocked(jobID)
	if err != nil {
		return false, err
	}
	if job.State != JobLeased || job.Attempts != attempt {
		return false, nil
	}
	rec := record{Type: "fail", Job: jobID, Attempt: attempt, Err: cause}
	if job.Attempts >= maxAttempts {
		rec.Type = "failed"
	}
	if err := s.j.append(rec); err != nil {
		return false, err
	}
	if err := s.applyLocked(rec); err != nil {
		return false, err
	}
	job.NotBefore = notBefore
	return rec.Type == "failed", nil
}

// Done commits a job's result: journaled, without an fsync, before the
// in-memory table holds it. The record survives a coordinator crash at
// once, and a power loss from the next Status read on, which fsyncs before
// it shows the result to any client. Committing an already-terminal job is
// a no-op — a late duplicate response from a retried attempt whose
// first response was cut cannot double-commit; nor can a late result for a
// job whose sweep retention has dropped. Reports whether this call
// committed.
func (s *Store) Done(jobID string, result json.RawMessage) (committed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.droppedLocked(jobID) {
		return false, nil
	}
	job, err := s.jobLocked(jobID)
	if err != nil {
		return false, err
	}
	if job.State == JobDone || job.State == JobFailed {
		return false, nil
	}
	rec := record{Type: "done", Job: jobID, Attempt: job.Attempts, Result: result}
	if err := s.j.append(rec); err != nil {
		return false, err
	}
	if err := s.applyLocked(rec); err != nil {
		return false, err
	}
	return true, nil
}

// Dispatchable returns snapshots of the first limit pending jobs whose
// backoff has elapsed at now, in deterministic (sweep admission, cell
// index) order.
func (s *Store) Dispatchable(now time.Time, limit int) []JobRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobRef
	for _, sw := range s.active {
		for _, job := range sw.Jobs {
			if len(out) == limit {
				return out
			}
			if job.State == JobPending && !now.Before(job.NotBefore) {
				out = append(out, refOf(job))
			}
		}
	}
	return out
}

// LeasedTo returns snapshots of the jobs currently leased to worker, in
// (sweep admission, cell index) order.
func (s *Store) LeasedTo(worker string) []JobRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobRef
	for _, sw := range s.active {
		for _, job := range sw.Jobs {
			if job.State == JobLeased && job.Worker == worker {
				out = append(out, refOf(job))
			}
		}
	}
	return out
}

// CellStatus is the externally visible state of one sweep cell.
type CellStatus struct {
	Index    int             `json:"index"`
	Workload string          `json:"workload"`
	Policy   string          `json:"policy"`
	Hash     string          `json:"hash"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts"`
	Worker   string          `json:"worker,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// SweepStatus is the externally visible state of a sweep: aggregate
// progress plus per-cell rows in cell order. Partial results are first-class:
// done cells carry their results while the remainder retries.
type SweepStatus struct {
	ID      string       `json:"id"`
	State   string       `json:"state"` // running | done | failed
	Total   int          `json:"total"`
	Done    int          `json:"done"`
	Failed  int          `json:"failed"`
	Leased  int          `json:"leased"`
	Pending int          `json:"pending"`
	Cells   []CellStatus `json:"cells"`
}

// State reports a sweep's aggregate state (Sweep.State) without building
// its status rows; ok is false for a sweep the store does not hold. It is
// an unsynced probe: WaitSweep calls it on every wake-up, one per commit,
// and a sync there would put an fsync back on every commit. The state it
// reports may rest on records a power loss could drop, so it returns no
// cell and no result; those come from Status.
func (s *Store) State(id string) (state string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return "", false
	}
	return sw.State(), true
}

// Status snapshots a sweep for rendering. It is the commit barrier: it
// first fsyncs the journal if any record is unsynced, so one fsync covers
// every record written before it, and everything the snapshot shows
// survives a power loss. If that fsync fails, Status returns the error and
// no snapshot; ok is false for a sweep the store does not hold.
func (s *Store) Status(id string) (st SweepStatus, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err = s.j.sync(); err != nil {
		return SweepStatus{}, false, err
	}
	sw, ok := s.sweeps[id]
	if !ok {
		return SweepStatus{}, false, nil
	}
	st = SweepStatus{ID: id, State: sw.State(), Total: len(sw.Jobs)}
	for _, job := range sw.Jobs {
		switch job.State {
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobLeased:
			st.Leased++
		default:
			st.Pending++
		}
		st.Cells = append(st.Cells, CellStatus{
			Index: job.Index, Workload: job.Cell.Workload, Policy: job.Cell.Policy,
			Hash: job.Hash, State: job.State, Attempts: job.Attempts,
			Worker: job.Worker, Error: job.Err, Result: job.Result,
		})
	}
	return st, true, nil
}

// SweepIDs returns the IDs of every held sweep — each active one and the
// newest retired ones — in admission order.
func (s *Store) SweepIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}
