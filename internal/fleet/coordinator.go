package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coscale/internal/server"
)

// Config shapes a Coordinator. The zero value selects the documented
// defaults; negative RetryAfterJitterSeconds disables the shed jitter.
type Config struct {
	// HeartbeatInterval is the cadence workers are told to heartbeat at
	// (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence after which a worker stops receiving new
	// leases (default 3× HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a worker is declared dead and
	// its leases are reclaimed (default 6× HeartbeatInterval).
	DeadAfter time.Duration
	// SchedTick is the interval of the scheduler's periodic pass (default
	// 25ms), which reaps silent workers, dispatches jobs whose retry
	// backoff has expired and routes work to newly joined workers. It does
	// not pace dispatch otherwise: new sweeps, freed inflight slots and
	// heartbeats wake the scheduler at once.
	SchedTick time.Duration
	// JobTimeout bounds one dispatch attempt end to end (default 60s).
	JobTimeout time.Duration
	// MaxAttempts caps lease attempts per job before it fails terminally
	// (default 4).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the per-job retry backoff
	// (defaults 250ms, 8s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxInflightPerWorker bounds concurrently leased jobs per worker
	// (default 4, matching the worker's own pool).
	MaxInflightPerWorker int
	// RetryAfterSeconds is the base Retry-After hint when shedding
	// (default 1); RetryAfterJitterSeconds spreads it into
	// [base, base+jitter] (default 2; negative disables).
	RetryAfterSeconds       int
	RetryAfterJitterSeconds int
	// PowerBudgetWatts is the fleet's global power budget, split across
	// live workers and republished through join/heartbeat responses
	// (0 = uncapped). Adjustable at runtime via SetBudget.
	PowerBudgetWatts float64
	// JournalPath is the crash-safe job journal ("" = in-memory only).
	JournalPath string
	// Transport executes leases (default HTTPTransport).
	Transport Transport
	// Logger receives coordinator events (default log.Default).
	Logger *log.Logger
	// Clock is the time source, replaceable by tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6 * c.HeartbeatInterval
	}
	if c.SchedTick <= 0 {
		c.SchedTick = 25 * time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.MaxInflightPerWorker <= 0 {
		c.MaxInflightPerWorker = 4
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	if c.RetryAfterJitterSeconds == 0 {
		c.RetryAfterJitterSeconds = 2
	}
	if c.Transport == nil {
		c.Transport = &HTTPTransport{}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.Clock == nil {
		//lint:ignore determinism the wall clock enters the fleet here once; tests inject a fake Clock
		c.Clock = time.Now
	}
	return c
}

// workerState is the coordinator's bookkeeping for one registered worker.
// Health is derived, not stored: silence past SuspectAfter makes a worker
// suspect (no new leases), past DeadAfter makes it dead (leases reclaimed,
// removed from the ring until it rejoins).
type workerState struct {
	id         string
	addr       string
	lastBeat   time.Time
	draining   bool
	queueDepth int
	inflight   int
	dead       bool
	budgetW    float64 // assigned slice of the fleet power budget
}

// Worker health states.
const (
	WorkerLive    = "live"
	WorkerSuspect = "suspect"
	WorkerDead    = "dead"
)

// leasable reports whether w may take new leases at now: live and not
// draining. Its free inflight slots are what a dispatch pass can fill.
func (w *workerState) leasable(now time.Time, cfg Config) bool {
	return w.health(now, cfg) == WorkerLive && !w.draining
}

func (w *workerState) health(now time.Time, cfg Config) string {
	switch {
	case w.dead:
		return WorkerDead
	case now.Sub(w.lastBeat) > cfg.SuspectAfter:
		return WorkerSuspect
	}
	return WorkerLive
}

// fleetMetrics aggregates the coordinator counters exposed at /metrics.
type fleetMetrics struct {
	dispatched atomic.Int64 // leases handed to the transport
	committed  atomic.Int64 // results committed to the journal
	duplicates atomic.Int64 // late results for already-terminal jobs
	retried    atomic.Int64 // failed attempts returned to pending
	failed     atomic.Int64 // jobs failed terminally at the attempt cap
	reclaimed  atomic.Int64 // leases reclaimed from dead workers
	shed       atomic.Int64 // sweeps refused for want of live workers
	heartbeats atomic.Int64 // heartbeats accepted
	rebalances atomic.Int64 // power-budget reassignments that changed a slice
}

// Coordinator owns the fleet: worker membership and health, the consistent
// hash ring, the crash-safe job store, and the scheduler that turns pending
// jobs into leases on live workers. One scheduler goroutine makes every
// routing decision in deterministic (sweep, cell) × sorted-worker order;
// dispatch goroutines only execute the decisions and report back through
// the store's guarded transitions. The scheduler runs a pass as soon as a
// sweep arrives, an inflight slot frees or a worker heartbeats (kick), and
// on every tick.
type Coordinator struct {
	cfg   Config
	store *Store
	tr    Transport

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	ring    *Ring
	workers map[string]*workerState
	budgetW float64       // fleet power budget (0 = uncapped), guarded by mu
	update  chan struct{} // closed and replaced on every state change
	kick    chan struct{} // one slot: a dispatch pass is due

	retrySeq atomic.Int64
	started  time.Time
	m        fleetMetrics
}

// New opens the journal (replaying any previous run), starts the scheduler,
// and returns the running coordinator.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	st, err := OpenStore(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		store:   st,
		tr:      cfg.Transport,
		baseCtx: ctx,
		cancel:  cancel,
		ring:    NewRing(),
		workers: map[string]*workerState{},
		budgetW: cfg.PowerBudgetWatts,
		update:  make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	c.started = c.now()
	c.wg.Add(1)
	//lint:ignore dettaint single scheduler goroutine; all routing decisions are made inside it in deterministic order
	go c.run()
	return c, nil
}

// Close stops the scheduler, waits out in-flight dispatches (their contexts
// are cancelled), and releases the journal.
func (c *Coordinator) Close() error {
	c.cancel()
	c.wg.Wait()
	return c.store.Close()
}

func (c *Coordinator) now() time.Time { return c.cfg.Clock() }

func (c *Coordinator) logf(format string, args ...any) {
	c.cfg.Logger.Printf("fleet: "+format, args...)
}

// bump wakes every status waiter: the broadcast channel is closed and
// replaced under the lock.
func (c *Coordinator) bump() {
	c.mu.Lock()
	close(c.update)
	c.update = make(chan struct{})
	c.mu.Unlock()
}

// wake asks the scheduler for a dispatch pass. It never blocks: one
// pending request already covers every change made before the pass runs.
func (c *Coordinator) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// updated returns the channel closed at the next state change.
func (c *Coordinator) updated() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.update
}

// workerIDsLocked returns the registered worker IDs sorted, so scheduler
// iteration order is deterministic.
func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	//lint:ignore determinism keys are sorted before use
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// run is the scheduler loop. A kick — a new sweep, a freed inflight slot or
// a heartbeat — dispatches at once. Each tick reaps dead workers
// (reclaiming their leases) and dispatches what no kick announces: jobs
// whose backoff has since elapsed, and work for newly joined workers.
func (c *Coordinator) run() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SchedTick)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			now := c.now()
			c.reap(now)
			c.dispatch(now)
		case <-c.kick:
			c.dispatch(c.now())
		}
	}
}

// reap transitions silent workers to dead and reclaims their leases: each
// leased job fails its current attempt and returns to pending with backoff,
// to be rebalanced onto the survivors by the next dispatch pass.
func (c *Coordinator) reap(now time.Time) {
	c.mu.Lock()
	var newlyDead []string
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		if !w.dead && now.Sub(w.lastBeat) > c.cfg.DeadAfter {
			w.dead = true
			c.ring.Remove(id)
			newlyDead = append(newlyDead, id)
		}
	}
	if len(newlyDead) > 0 {
		c.rebalanceLocked() // dead workers' budget slices move to survivors
	}
	c.mu.Unlock()
	for _, id := range newlyDead {
		c.logf("worker %s: no heartbeat for %v, declared dead", id, c.cfg.DeadAfter)
		for _, job := range c.store.LeasedTo(id) {
			nb := now.Add(Backoff(job.Hash, job.Attempts, c.cfg.BackoffBase, c.cfg.BackoffMax))
			terminal, err := c.store.Fail(job.ID, job.Attempts, "worker "+id+" dead", c.cfg.MaxAttempts, nb)
			if err != nil {
				c.logf("reclaim %s: %v", job.ID, err)
				continue
			}
			c.m.reclaimed.Add(1)
			if terminal {
				c.m.failed.Add(1)
				c.logf("job %s: failed terminally after %d attempts (worker %s dead)", job.ID, job.Attempts, id)
			} else {
				c.m.retried.Add(1)
				c.logf("job %s: lease on dead worker %s reclaimed (attempt %d)", job.ID, id, job.Attempts)
			}
		}
		c.bump()
	}
}

// dispatch routes dispatchable jobs to the first eligible worker clockwise
// from each job's hash point — leasable, with a free inflight slot —
// reserving the slot under the lock, then leases and launches the
// transport call. Every eligible worker is on the ring, so only the first
// jobs, as many as there are free slots, can be placed; the pass reads no
// more than those. The rest stay pending until the next kick or tick.
func (c *Coordinator) dispatch(now time.Time) {
	c.mu.Lock()
	free := 0
	for _, id := range c.workerIDsLocked() {
		if w := c.workers[id]; w.leasable(now, c.cfg) {
			free += c.cfg.MaxInflightPerWorker - w.inflight
		}
	}
	c.mu.Unlock()
	if free <= 0 {
		return
	}
	refs := c.store.Dispatchable(now, free)
	if len(refs) == 0 {
		return
	}
	type assignment struct {
		job JobRef
		ep  Endpoint
	}
	var assigns []assignment
	c.mu.Lock()
	for _, job := range refs {
		id, ok := c.ring.Lookup(job.Hash, func(wid string) bool {
			w := c.workers[wid]
			return w != nil && w.leasable(now, c.cfg) && w.inflight < c.cfg.MaxInflightPerWorker
		})
		if !ok {
			continue
		}
		w := c.workers[id]
		w.inflight++
		assigns = append(assigns, assignment{job, Endpoint{ID: id, Addr: w.addr}})
	}
	c.mu.Unlock()
	for _, a := range assigns {
		attempt, err := c.store.Lease(a.job.ID, a.ep.ID)
		if err != nil {
			c.release(a.ep.ID) // lost a race with a concurrent commit
			continue
		}
		c.m.dispatched.Add(1)
		c.wg.Add(1)
		//lint:ignore dettaint dispatch goroutines only execute scheduler decisions; results commit through the store's guarded, order-independent transitions
		go c.execute(a.job, attempt, a.ep)
	}
}

// release returns a worker's inflight slot and wakes the scheduler to fill
// it.
func (c *Coordinator) release(workerID string) {
	c.mu.Lock()
	if w := c.workers[workerID]; w != nil && w.inflight > 0 {
		w.inflight--
	}
	c.mu.Unlock()
	c.wake()
}

// execute runs one lease attempt to its terminal store transition: a result
// commits (idempotently — a duplicate from an earlier attempt whose response
// was lost cannot double-commit), a failure returns the job to pending with
// backoff or fails it terminally at the attempt cap.
func (c *Coordinator) execute(job JobRef, attempt int, ep Endpoint) {
	defer c.wg.Done()
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.JobTimeout)
	res, err := c.tr.Execute(ctx, ep, JobSpec{ID: job.ID, Hash: job.Hash, Attempt: attempt, Simulate: job.Cell})
	cancel()
	c.release(ep.ID)
	if err != nil {
		nb := c.now().Add(Backoff(job.Hash, attempt, c.cfg.BackoffBase, c.cfg.BackoffMax))
		terminal, ferr := c.store.Fail(job.ID, attempt, err.Error(), c.cfg.MaxAttempts, nb)
		if ferr != nil {
			c.logf("fail %s: %v", job.ID, ferr)
			return
		}
		if terminal {
			c.m.failed.Add(1)
			c.logf("job %s: failed terminally after %d attempts: %v", job.ID, attempt, err)
		} else {
			c.m.retried.Add(1)
			c.logf("job %s: attempt %d on %s failed, will retry: %v", job.ID, attempt, ep.ID, err)
		}
		c.bump()
		return
	}
	committed, derr := c.store.Done(job.ID, res.Result)
	if derr != nil {
		c.logf("commit %s: %v", job.ID, derr)
		return
	}
	if committed {
		c.m.committed.Add(1)
	} else {
		c.m.duplicates.Add(1)
	}
	c.bump()
}

// register adds a worker (or revives a dead one) and puts it on the ring.
// A join does not wake the scheduler; the next tick routes work to the new
// worker. The workers of a restarted coordinator rejoin one at a time, and
// a pass run on the first join would route every recovered cell to that
// worker, away from the workers whose result caches hold them.
func (c *Coordinator) register(id, addr string) (assigned float64) {
	now := c.now()
	c.mu.Lock()
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.addr = addr
	w.lastBeat = now
	w.dead = false
	w.draining = false
	c.ring.Add(id)
	c.rebalanceLocked()
	assigned = w.budgetW
	c.mu.Unlock()
	c.logf("worker %s joined at %s", id, addr)
	c.bump()
	return assigned
}

// heartbeat refreshes a worker's lease on membership. It reports false for
// unknown or already-dead workers — the 404 tells the agent to rejoin, which
// is how a worker recovers from a coordinator restart or its own death
// verdict.
func (c *Coordinator) heartbeat(id, addr string, rs server.ReadyState) (assigned, fleetBudget float64, ok bool) {
	now := c.now()
	c.mu.Lock()
	w := c.workers[id]
	if w == nil || w.dead {
		c.mu.Unlock()
		return 0, 0, false
	}
	if addr != "" {
		w.addr = addr
	}
	w.lastBeat = now
	draining := rs.Draining || !rs.Ready
	if draining != w.draining {
		w.draining = draining
		c.rebalanceLocked() // a drain transition moves budget between workers
	}
	w.queueDepth = rs.QueueDepth
	assigned, fleetBudget = w.budgetW, c.budgetW
	c.mu.Unlock()
	c.m.heartbeats.Add(1)
	c.wake() // a suspect worker that beats is live again
	return assigned, fleetBudget, true
}

// liveWorkers counts workers currently eligible for new leases.
func (c *Coordinator) liveWorkers(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, id := range c.workerIDsLocked() {
		if c.workers[id].leasable(now, c.cfg) {
			n++
		}
	}
	return n
}

// rebalanceLocked recomputes every worker's slice of the fleet power
// budget: an equal split over non-dead, non-draining workers (the
// degenerate water-filling — the coordinator holds no per-node
// power/performance frontiers; internal/fastcap is the frontier-aware
// allocator driving the same SetCap hook). The one-ulp Nextafter guard
// makes the conservation invariant exact: the sum of published slices
// never exceeds the budget, in float arithmetic, at any fleet size.
// Callers hold c.mu.
func (c *Coordinator) rebalanceLocked() {
	ids := c.workerIDsLocked()
	n := 0
	for _, id := range ids {
		w := c.workers[id]
		if !w.dead && !w.draining {
			n++
		}
	}
	share := 0.0
	if c.budgetW > 0 && n > 0 {
		share = c.budgetW / float64(n)
		if share*float64(n) > c.budgetW {
			share = math.Nextafter(share, 0)
		}
	}
	changed := false
	for _, id := range ids {
		w := c.workers[id]
		s := share
		if w.dead || w.draining {
			s = 0
		}
		if math.Float64bits(s) != math.Float64bits(w.budgetW) {
			w.budgetW = s
			changed = true
		}
	}
	if changed {
		c.m.rebalances.Add(1)
	}
}

// SetBudget replaces the fleet's global power budget at runtime (0 removes
// the cap) and rebalances worker slices immediately; workers observe their
// new slice on their next heartbeat.
func (c *Coordinator) SetBudget(watts float64) error {
	if watts < 0 || math.IsNaN(watts) {
		return fmt.Errorf("fleet: power budget %g W must be non-negative", watts)
	}
	c.mu.Lock()
	c.budgetW = watts
	c.rebalanceLocked()
	c.mu.Unlock()
	c.bump()
	return nil
}

// Budget returns the current fleet power budget (0 = uncapped).
func (c *Coordinator) Budget() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetW
}

// Submit admits a sweep, shedding with an error when no live worker exists
// to make progress on it (the HTTP layer maps this to 503/Retry-After).
func (c *Coordinator) Submit(req server.SweepRequest) (SweepStatus, error) {
	n, err := req.Normalized()
	if err != nil {
		return SweepStatus{}, errorf(http.StatusBadRequest, "invalid sweep: %v", err)
	}
	if c.liveWorkers(c.now()) == 0 {
		c.m.shed.Add(1)
		return SweepStatus{}, &apiError{
			status:     http.StatusServiceUnavailable,
			msg:        "no live workers: fleet cannot make progress, retry shortly",
			retryAfter: server.RetryAfterSeconds(c.cfg.RetryAfterSeconds, c.cfg.RetryAfterJitterSeconds, &c.retrySeq),
		}
	}
	id, total, err := c.store.AddSweep(n)
	if err != nil {
		return SweepStatus{}, err
	}
	c.logf("sweep %s admitted: %d cells", id, total)
	c.bump()
	c.wake()
	st, _ := c.store.Status(id)
	return st, nil
}

// Status snapshots one sweep.
func (c *Coordinator) Status(id string) (SweepStatus, bool) { return c.store.Status(id) }

// WaitSweep blocks until the sweep is terminal (done or failed) or the
// context ends, returning its status either way. Each wake-up reads only
// the sweep's state; the full status is built once, at the end.
func (c *Coordinator) WaitSweep(ctx context.Context, id string) (SweepStatus, error) {
	for {
		ch := c.updated() // subscribe before reading to not miss a wakeup
		state, ok := c.store.State(id)
		if !ok {
			return SweepStatus{}, fmt.Errorf("unknown sweep %q", id)
		}
		if state != "running" {
			break
		}
		select {
		case <-ctx.Done():
			st, _ := c.store.Status(id)
			return st, ctx.Err()
		case <-ch:
		}
	}
	st, ok := c.store.Status(id)
	if !ok {
		return SweepStatus{}, fmt.Errorf("unknown sweep %q", id)
	}
	return st, nil
}

// WorkerInfo is the externally visible state of one registered worker.
type WorkerInfo struct {
	ID          string  `json:"id"`
	Addr        string  `json:"addr"`
	Health      string  `json:"health"`
	Draining    bool    `json:"draining,omitempty"`
	QueueDepth  int     `json:"queue_depth"`
	Inflight    int     `json:"inflight"`
	BudgetWatts float64 `json:"budget_watts,omitempty"`
}

// Workers snapshots the registered workers in sorted ID order.
func (c *Coordinator) Workers() []WorkerInfo {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		out = append(out, WorkerInfo{
			ID: w.id, Addr: w.addr, Health: w.health(now, c.cfg),
			Draining: w.draining, QueueDepth: w.queueDepth, Inflight: w.inflight,
			BudgetWatts: w.budgetW,
		})
	}
	return out
}

// --- HTTP API ---

// apiError mirrors the serving layer's error convention: handlers return
// errors, wrap renders them as one JSON object with the mapped status.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func errorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

func wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := h(w, r)
		if err == nil {
			return
		}
		status := http.StatusInternalServerError
		if ae, ok := err.(*apiError); ok {
			status = ae.status
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", fmt.Sprintf("%d", ae.retryAfter))
			}
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON strictly decodes the request body (unknown fields are errors).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errorf(http.StatusBadRequest, "invalid request body: %v", err)
	}
	if dec.More() {
		return errorf(http.StatusBadRequest, "trailing data after request body")
	}
	return nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", wrap(c.handleHealth))
	mux.HandleFunc("GET /readyz", wrap(c.handleReady))
	mux.HandleFunc("GET /metrics", wrap(c.handleMetrics))
	mux.HandleFunc("POST /v1/fleet/sweeps", wrap(c.handleSubmit))
	mux.HandleFunc("GET /v1/fleet/sweeps", wrap(c.handleSweeps))
	mux.HandleFunc("GET /v1/fleet/sweeps/{id}", wrap(c.handleSweep))
	mux.HandleFunc("POST /v1/fleet/workers/join", wrap(c.handleJoin))
	mux.HandleFunc("POST /v1/fleet/workers/{id}/heartbeat", wrap(c.handleHeartbeat))
	mux.HandleFunc("GET /v1/fleet/workers", wrap(c.handleWorkers))
	return mux
}

// handleHealth is liveness only: the process is up.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	return nil
}

// FleetReady is the coordinator readiness snapshot: ready means at least
// one live, non-draining worker can take leases.
type FleetReady struct {
	Ready          bool `json:"ready"`
	WorkersLive    int  `json:"workers_live"`
	WorkersSuspect int  `json:"workers_suspect"`
	WorkersDead    int  `json:"workers_dead"`
}

// Ready reports the fleet's readiness.
func (c *Coordinator) Ready() FleetReady {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var fr FleetReady
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		switch w.health(now, c.cfg) {
		case WorkerDead:
			fr.WorkersDead++
		case WorkerSuspect:
			fr.WorkersSuspect++
		default:
			fr.WorkersLive++
			if !w.draining {
				fr.Ready = true
			}
		}
	}
	return fr
}

func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) error {
	fr := c.Ready()
	status := http.StatusOK
	if !fr.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, fr)
	return nil
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fr := c.Ready()
	fmt.Fprintf(w, "coscale_fleet_workers_live %d\n", fr.WorkersLive)
	fmt.Fprintf(w, "coscale_fleet_workers_suspect %d\n", fr.WorkersSuspect)
	fmt.Fprintf(w, "coscale_fleet_workers_dead %d\n", fr.WorkersDead)
	fmt.Fprintf(w, "coscale_fleet_leases_dispatched_total %d\n", c.m.dispatched.Load())
	fmt.Fprintf(w, "coscale_fleet_jobs_committed_total %d\n", c.m.committed.Load())
	fmt.Fprintf(w, "coscale_fleet_duplicate_results_total %d\n", c.m.duplicates.Load())
	fmt.Fprintf(w, "coscale_fleet_attempts_retried_total %d\n", c.m.retried.Load())
	fmt.Fprintf(w, "coscale_fleet_jobs_failed_total %d\n", c.m.failed.Load())
	fmt.Fprintf(w, "coscale_fleet_leases_reclaimed_total %d\n", c.m.reclaimed.Load())
	fmt.Fprintf(w, "coscale_fleet_sweeps_shed_total %d\n", c.m.shed.Load())
	fmt.Fprintf(w, "coscale_fleet_heartbeats_total %d\n", c.m.heartbeats.Load())
	fmt.Fprintf(w, "coscale_fleet_uptime_seconds %g\n", c.now().Sub(c.started).Seconds())
	c.mu.Lock()
	budget, assigned := c.budgetW, 0.0
	for _, id := range c.workerIDsLocked() {
		assigned += c.workers[id].budgetW
	}
	c.mu.Unlock()
	fmt.Fprintf(w, "coscale_powercap_budget_watts %g\n", budget)
	fmt.Fprintf(w, "coscale_powercap_assigned_watts %g\n", assigned)
	fmt.Fprintf(w, "coscale_powercap_rebalances_total %d\n", c.m.rebalances.Load())
	return nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) error {
	var req server.SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	st, err := c.Submit(req)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusAccepted, st)
	return nil
}

func (c *Coordinator) handleSweeps(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": c.store.SweepIDs()})
	return nil
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if v := r.URL.Query().Get("wait"); v == "1" || v == "true" {
		st, err := c.WaitSweep(r.Context(), id)
		if err != nil && st.ID == "" {
			return errorf(http.StatusNotFound, "unknown sweep %q", id)
		}
		writeJSON(w, http.StatusOK, st)
		return nil
	}
	st, ok := c.store.Status(id)
	if !ok {
		return errorf(http.StatusNotFound, "unknown sweep %q", id)
	}
	writeJSON(w, http.StatusOK, st)
	return nil
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) error {
	var req JoinRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.ID == "" || req.Addr == "" {
		return errorf(http.StatusBadRequest, "join requires id and addr")
	}
	assigned := c.register(req.ID, req.Addr)
	writeJSON(w, http.StatusOK, JoinResponse{
		HeartbeatMillis:    c.cfg.HeartbeatInterval.Milliseconds(),
		SuspectAfterMillis: c.cfg.SuspectAfter.Milliseconds(),
		DeadAfterMillis:    c.cfg.DeadAfter.Milliseconds(),
		BudgetWatts:        assigned,
		FleetBudgetWatts:   c.Budget(),
	})
	return nil
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var req HeartbeatRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	assigned, fleetBudget, ok := c.heartbeat(id, req.Addr, req.Ready)
	if !ok {
		return errorf(http.StatusNotFound, "unknown worker %q: rejoin", id)
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		Status:           "ok",
		BudgetWatts:      assigned,
		FleetBudgetWatts: fleetBudget,
	})
	return nil
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
	return nil
}
