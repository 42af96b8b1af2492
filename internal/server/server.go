package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coscale/internal/cache"
	"coscale/internal/experiments"
	"coscale/internal/sim"
	"coscale/internal/trace"
)

// Config sizes the serving subsystem. Zero values select defaults suited to
// one host: a worker per CPU, a queue a few bursts deep, and a result cache
// large enough for a dashboard's worth of distinct requests.
type Config struct {
	// Workers bounds concurrently executing jobs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-started jobs; a full queue
	// rejects with 429 and a Retry-After header (default 64).
	QueueDepth int
	// CacheSize bounds the LRU result cache, in completed requests
	// (default 256).
	CacheSize int
	// RetryAfterSeconds is the base backoff hint sent with 429s (default 1).
	RetryAfterSeconds int
	// RetryAfterJitterSeconds spreads each 429's Retry-After into
	// [base, base+jitter] seconds, deterministically sequenced, so a burst
	// of rejected clients does not return as one synchronized retry storm
	// (default 2; negative disables the jitter).
	RetryAfterJitterSeconds int
	// StreamWriteTimeout bounds each write on an NDJSON stream response: a
	// client that stalls its receive window longer than this is dropped —
	// the job keeps running — instead of pinning the handler goroutine
	// forever (default 30s; negative disables the deadline). Drops surface
	// as coscale_streams_dropped_total in /metrics.
	StreamWriteTimeout time.Duration
	// WorkerID names this process in fleet lease responses (see
	// internal/fleet); empty outside a fleet.
	WorkerID string
	// Logger, when non-nil, receives one line per job transition.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	switch {
	case c.RetryAfterJitterSeconds == 0:
		c.RetryAfterJitterSeconds = 2
	case c.RetryAfterJitterSeconds < 0:
		c.RetryAfterJitterSeconds = 0
	}
	switch {
	case c.StreamWriteTimeout == 0:
		c.StreamWriteTimeout = 30 * time.Second
	case c.StreamWriteTimeout < 0:
		c.StreamWriteTimeout = 0
	}
	return c
}

// maxJobs bounds the terminal jobs retained for GET /v1/jobs/{id}; the
// oldest are forgotten first.
const maxJobs = 1024

// Server is the serving subsystem: admission control in front of a bounded
// job queue, a fixed worker pool running simulations, an LRU result cache
// with in-flight deduplication, and the HTTP API over all of it. Create
// with New, expose via Handler, stop with Drain.
type Server struct {
	cfg    Config
	runner *experiments.Runner
	lru    *cache.LRU[string, *cachedResult]

	mu          sync.Mutex
	queue       chan *Job
	queueClosed bool
	jobs        map[string]*Job // by ID (queued, running, retained terminal)
	inflight    map[string]*Job // by request hash (queued or running)
	doneOrder   []string        // terminal job IDs, oldest first

	metrics  metrics
	wg       sync.WaitGroup
	draining atomic.Bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	started  time.Time
	nextID   atomic.Int64
	retrySeq atomic.Int64 // sequences the deterministic Retry-After jitter
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		runner:   &experiments.Runner{},
		lru:      cache.NewLRU[string, *cachedResult](cfg.CacheSize),
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
		baseCtx:  ctx,
		cancel:   cancel,
		started:  time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Drain gracefully stops the server: new submissions are refused with 503,
// queued and running jobs finish, then the worker pool exits. If ctx
// expires first, running jobs are cancelled (they unwind within one epoch)
// and Drain returns ctx.Err after the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.queueClosed {
		s.queueClosed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.wrap(s.handleHealth))
	mux.HandleFunc("GET /readyz", s.wrap(s.handleReady))
	mux.HandleFunc("GET /metrics", s.wrap(s.handleMetrics))
	mux.HandleFunc("POST /v1/simulate", s.wrap(s.handleSimulate))
	mux.HandleFunc("POST /v1/sweep", s.wrap(s.handleSweep))
	mux.HandleFunc("POST /v1/lease/execute", s.wrap(s.handleLeaseExecute))
	mux.HandleFunc("GET /v1/jobs/{id}", s.wrap(s.handleJob))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.wrap(s.handleStream))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.wrap(s.handleCancel))
	return mux
}

// apiError carries an HTTP status (and optional Retry-After) up to wrap.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func errorf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// wrap adapts an error-returning handler: the nopanic discipline for the
// serving layer is that handlers report failures as errors, which are
// rendered as one JSON object with the mapped status.
func (s *Server) wrap(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := h(w, r)
		if err == nil {
			return
		}
		status := http.StatusInternalServerError
		var ae *apiError
		if errors.As(err, &ae) {
			status = ae.status
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
			}
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left here
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// handleHealth is liveness only: the process is up and serving HTTP. It
// stays 200 through a drain — a draining worker is alive, just not ready —
// so supervisors do not kill a process that is finishing its queue.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	return nil
}

// ReadyState is the readiness snapshot behind GET /readyz, and the payload
// a fleet worker heartbeats to its coordinator: queue depth and drain state
// let the coordinator stop routing to a worker that is shutting down or
// saturated, instead of discovering it through lease timeouts.
type ReadyState struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	Running       int  `json:"running"`
	Workers       int  `json:"workers"`
}

// Ready reports the serving subsystem's readiness.
func (s *Server) Ready() ReadyState {
	draining := s.draining.Load()
	return ReadyState{
		Ready:         !draining,
		Draining:      draining,
		QueueDepth:    int(s.metrics.queued.Load()),
		QueueCapacity: s.cfg.QueueDepth,
		Running:       int(s.metrics.running.Load()),
		Workers:       s.cfg.Workers,
	}
}

// handleReady is readiness: 200 while accepting work, 503 while draining.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) error {
	st := s.Ready()
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
	return nil
}

// ExecutedJobs reports how many jobs this server actually simulated to
// completion (cache hits and deduped attaches excluded) — the counter the
// fleet tests use to prove a committed result is never recomputed.
func (s *Server) ExecutedJobs() int64 { return s.metrics.done.Load() }

// SetPowerCap publishes this worker's assigned slice of the fleet power
// budget (and the global budget it came from) at /metrics. The fleet
// agent's OnBudget hook calls it after the join and every heartbeat; only
// bit-changes count as rebalances.
func (s *Server) SetPowerCap(assigned, fleetBudget float64) {
	s.metrics.capBudgetBits.Store(math.Float64bits(fleetBudget))
	if s.metrics.capAssignedBits.Swap(math.Float64bits(assigned)) != math.Float64bits(assigned) {
		s.metrics.capRebalances.Add(1)
	}
}

// PowerCap returns the worker's currently assigned power budget slice and
// the fleet-wide budget (both 0 when uncapped).
func (s *Server) PowerCap() (assigned, fleetBudget float64) {
	return math.Float64frombits(s.metrics.capAssignedBits.Load()),
		math.Float64frombits(s.metrics.capBudgetBits.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	builds, hits := s.runner.Tables().Stats()
	s.metrics.write(w, time.Since(s.started), builds, hits)
	return nil
}

// decodeJSON strictly decodes the request body (unknown fields are errors:
// a typoed option must not silently select a default).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errorf(http.StatusBadRequest, "invalid request body: %v", err)
	}
	if dec.More() {
		return errorf(http.StatusBadRequest, "invalid request body: trailing data")
	}
	return nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	n, err := req.Normalized()
	if err != nil {
		return errorf(http.StatusBadRequest, "invalid simulate request: %v", err)
	}
	hash, err := hashTagged("simulate", n)
	if err != nil {
		return errorf(http.StatusInternalServerError, "hash request: %v", err)
	}
	return s.submit(w, r, &Job{Kind: "simulate", Hash: hash, simReq: &n})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	n, err := req.Normalized()
	if err != nil {
		return errorf(http.StatusBadRequest, "invalid sweep request: %v", err)
	}
	hash, err := hashTagged("sweep", n)
	if err != nil {
		return errorf(http.StatusInternalServerError, "hash request: %v", err)
	}
	return s.submit(w, r, &Job{Kind: "sweep", Hash: hash, sweepReq: &n})
}

// submit is the admission path shared by simulate and sweep: admit the
// prospective job, then render its state over HTTP.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, proto *Job) error {
	job, aerr := s.admit(proto)
	if aerr != nil {
		return aerr
	}
	return s.respondJob(w, r, job)
}

// admit resolves a prospective job against existing state — result cache,
// in-flight dedup — or registers and enqueues a real job built from it,
// with 429 backpressure when the bounded queue is full. proto carries the
// kind, hash and normalized request. It is shared by the HTTP submission
// handlers and the fleet lease-execution endpoint.
func (s *Server) admit(proto *Job) (*Job, *apiError) {
	if s.draining.Load() {
		return nil, &apiError{
			status:     http.StatusServiceUnavailable,
			msg:        "server is draining",
			retryAfter: s.retryAfterSeconds(),
		}
	}
	now := time.Now()
	if res, ok := s.lru.Get(proto.Hash); ok && res.kind == proto.Kind {
		s.metrics.cacheHits.Add(1)
		job := newJob(s.newID(proto.Hash), proto.Kind, proto.Hash, now)
		job.completeFromCache(res, now)
		s.register(job, true)
		s.logf("job %s: %s served from cache", job.ID, job.Kind)
		return job, nil
	}
	s.metrics.cacheMisses.Add(1)

	s.mu.Lock()
	if j, ok := s.inflight[proto.Hash]; ok {
		s.mu.Unlock()
		s.metrics.deduped.Add(1)
		s.logf("job %s: identical request attached (dedup)", j.ID)
		return j, nil
	}
	if s.queueClosed {
		s.mu.Unlock()
		return nil, &apiError{
			status:     http.StatusServiceUnavailable,
			msg:        "server is draining",
			retryAfter: s.retryAfterSeconds(),
		}
	}
	job := newJob(s.newID(proto.Hash), proto.Kind, proto.Hash, now)
	job.simReq, job.sweepReq = proto.simReq, proto.sweepReq
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.metrics.rejected.Add(1)
		return nil, &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("job queue full (%d deep); retry shortly", s.cfg.QueueDepth),
			retryAfter: s.retryAfterSeconds(),
		}
	}
	s.jobs[job.ID] = job
	s.inflight[job.Hash] = job
	s.mu.Unlock()
	s.metrics.queued.Add(1)
	s.logf("job %s: %s queued (hash %.8s)", job.ID, job.Kind, job.Hash)
	return job, nil
}

// retryAfterSeconds returns the next backpressure hint (RetryAfterSeconds).
func (s *Server) retryAfterSeconds() int {
	return RetryAfterSeconds(s.cfg.RetryAfterSeconds, s.cfg.RetryAfterJitterSeconds, &s.retrySeq)
}

// RetryAfterSeconds returns a backpressure hint: base plus a deterministic
// jitter in [0, jitter] seconds, sequenced by a splitmix64-scrambled
// counter. Rejected clients therefore spread their retries across the
// window instead of synchronizing on one boundary — and the shared fleet
// client honors the header (internal/fleet.Client). The fleet coordinator's
// shed hint uses it too.
func RetryAfterSeconds(base, jitter int, seq *atomic.Int64) int {
	if jitter <= 0 {
		return base
	}
	n := uint64(seq.Add(1))
	return base + int(trace.Mix64(n)%uint64(jitter+1))
}

func (s *Server) newID(hash string) string {
	n := s.nextID.Add(1)
	tag := hash
	if len(tag) > 8 {
		tag = tag[:8]
	}
	return fmt.Sprintf("j%d-%s", n, tag)
}

// register adds a job created outside the queue path (cache hits) to the
// registry, retiring old terminal jobs.
func (s *Server) register(j *Job, isTerminal bool) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	if isTerminal {
		s.retireLocked(j)
	}
	s.mu.Unlock()
}

// retire moves a finished job out of the in-flight table and trims the
// terminal-job retention window.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

func (s *Server) retireLocked(j *Job) {
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.doneOrder = append(s.doneOrder, j.ID)
	for len(s.doneOrder) > maxJobs {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, old)
	}
}

func (s *Server) jobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobJSON is the externally visible job state.
type jobJSON struct {
	ID             string          `json:"id"`
	Kind           string          `json:"kind"`
	State          string          `json:"state"`
	RequestHash    string          `json:"request_hash"`
	CacheHit       bool            `json:"cache_hit,omitempty"`
	EpochsStreamed int             `json:"epochs_streamed,omitempty"`
	Error          string          `json:"error,omitempty"`
	Result         json.RawMessage `json:"result,omitempty"`
}

func jobBody(j *Job, v jobView) jobJSON {
	body := jobJSON{
		ID:             j.ID,
		Kind:           j.Kind,
		State:          v.State,
		RequestHash:    j.Hash,
		CacheHit:       v.CacheHit,
		EpochsStreamed: v.Records,
		Result:         v.Result,
	}
	if v.Err != nil {
		body.Error = v.Err.Error()
	}
	return body
}

// respondJob renders a job's current state; with ?wait=1 it first blocks
// until the job is terminal (or the client gives up).
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *Job) error {
	v, _ := j.view()
	if waitRequested(r) && !terminal(v.State) {
		var err error
		v, err = j.wait(r.Context())
		if err != nil {
			return nil // client went away; nothing to respond to
		}
	}
	status := http.StatusAccepted
	if terminal(v.State) {
		status = http.StatusOK
	}
	writeJSON(w, status, jobBody(j, v))
	return nil
}

func waitRequested(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		return errorf(http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return s.respondJob(w, r, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		return errorf(http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	if !j.requestCancel() {
		v, _ := j.view()
		return errorf(http.StatusConflict, "job %s already %s", j.ID, v.State)
	}
	s.logf("job %s: cancellation requested", j.ID)
	v, _ := j.view()
	writeJSON(w, http.StatusAccepted, jobBody(j, v))
	return nil
}

// streamLine is one NDJSON line of GET /v1/jobs/{id}/stream: per-epoch
// progress while the job runs, then exactly one terminal line carrying the
// result (or error/cancellation).
type streamLine struct {
	Type      string          `json:"type"` // "epoch" | "result" | "error" | "cancelled"
	Epoch     int             `json:"epoch,omitempty"`
	Wall      float64         `json:"wall_seconds,omitempty"`
	CoreHz    []float64       `json:"core_hz,omitempty"`
	MemHz     float64         `json:"mem_hz,omitempty"`
	PowerW    float64         `json:"power_w,omitempty"`
	Slowdowns []float64       `json:"slowdowns,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func epochLine(rec sim.EpochRecord) streamLine {
	return streamLine{
		Type:      "epoch",
		Epoch:     rec.Index,
		Wall:      rec.Wall,
		CoreHz:    rec.CoreHz,
		MemHz:     rec.MemHz,
		PowerW:    rec.PowerW,
		Slowdowns: rec.Slowdowns,
	}
}

// handleStream replays the job's buffered epoch records and then follows
// live appends until the job is terminal, flushing each batch. A client
// disconnect simply ends the stream; the job keeps running (cancel it with
// DELETE /v1/jobs/{id}). Each write batch renews a write deadline
// (Config.StreamWriteTimeout): a client that stalls its receive window —
// connected but not reading — is dropped once the kernel buffers fill and
// the deadline trips, so it cannot pin this handler goroutine forever.
// Such drops are counted as coscale_streams_dropped_total, whether the
// deadline trips in a line's write or in the batch's flush: a failed
// flush also cancels the request context, so its error must be read here
// or the drop would end the stream uncounted.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		return errorf(http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	renewDeadline := func() {
		if s.cfg.StreamWriteTimeout > 0 {
			// Best effort: a transport without deadlines just keeps the old
			// blocking behaviour.
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		}
	}
	streamErr := func(err error) error {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.metrics.streamsDropped.Add(1)
			s.logf("job %s: stream dropped (client stalled past %s)", j.ID, s.cfg.StreamWriteTimeout)
		}
		return nil // in either case the stream is over; the job keeps running
	}
	flush := func() error {
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
	enc := json.NewEncoder(w)
	sent := 0
	for {
		renewDeadline()
		for _, rec := range j.recordsFrom(sent) {
			if err := enc.Encode(epochLine(rec)); err != nil {
				return streamErr(err)
			}
			sent++
		}
		v, ch := j.view()
		if v.Records > sent {
			continue // more records arrived while snapshotting
		}
		if terminal(v.State) {
			final := streamLine{Type: "result", Result: v.Result}
			switch v.State {
			case StateFailed:
				final = streamLine{Type: "error", Error: v.Err.Error()}
			case StateCancelled:
				final = streamLine{Type: "cancelled"}
				if v.Err != nil {
					final.Error = v.Err.Error()
				}
			}
			if err := enc.Encode(final); err != nil {
				return streamErr(err)
			}
			return streamErr(flush())
		}
		if err := flush(); err != nil {
			return streamErr(err)
		}
		select {
		case <-r.Context().Done():
			return nil
		case <-ch:
		}
	}
}

// worker drains the job queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one admitted job on this worker, handling the
// cancelled-while-queued fast path, terminal-state accounting, and result
// caching.
func (s *Server) runJob(j *Job) {
	s.metrics.queued.Add(-1)
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.start(cancel, time.Now()) {
		// Cancelled while queued: nothing ran, free the slot immediately.
		s.metrics.cancelled.Add(1)
		s.retire(j)
		s.logf("job %s: cancelled before start", j.ID)
		return
	}
	s.metrics.running.Add(1)
	s.logf("job %s: running", j.ID)

	var raw json.RawMessage
	var err error
	switch j.Kind {
	case "simulate":
		raw, err = s.executeSimulate(ctx, j)
	case "sweep":
		raw, err = s.executeSweep(ctx, j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}

	state := StateDone
	switch {
	case err == nil:
		s.metrics.done.Add(1)
		s.lru.Add(j.Hash, &cachedResult{kind: j.Kind, result: raw, records: j.recordsFrom(0)})
	case isCancellation(err):
		state = StateCancelled
		s.metrics.cancelled.Add(1)
	default:
		state = StateFailed
		s.metrics.failed.Add(1)
	}
	now := time.Now()
	j.finish(state, raw, err, now)
	s.retire(j)
	s.metrics.running.Add(-1)
	s.metrics.observeLatency(now.Sub(j.created))
	s.logf("job %s: %s", j.ID, state)
}
