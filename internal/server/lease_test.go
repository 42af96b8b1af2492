package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLeaseExecuteEndpoint drives the fleet worker protocol directly: a
// leased cell executes synchronously, a retried lease for the same cell is a
// cache hit rather than a second simulation, and a hash mismatch between the
// coordinator's routing key and the worker's canonical hash is rejected
// before anything runs.
func TestLeaseExecuteEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 16, WorkerID: "w-test"})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	cell := SimulateRequest{Workload: "ILP1", Instructions: 2_000_000}
	n, err := cell.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := hashTagged("simulate", n)
	if err != nil {
		t.Fatal(err)
	}

	lease := func(jobID string, attempt int, h string) (int, LeaseExecuteResponse, []byte) {
		t.Helper()
		resp, body := postJSON(t, client, ts.URL+"/v1/lease/execute", LeaseExecuteRequest{
			JobID: jobID, Attempt: attempt, Hash: h, Simulate: cell,
		})
		var out LeaseExecuteResponse
		if resp.StatusCode == http.StatusOK {
			out = decodeLease(t, body)
		}
		return resp.StatusCode, out, body
	}

	status, first, body := lease("job-1", 1, hash)
	if status != http.StatusOK {
		t.Fatalf("lease execute: status %d: %s", status, body)
	}
	if first.JobID != "job-1" || first.WorkerID != "w-test" || first.Hash != hash {
		t.Fatalf("lease response identity = %+v, want job-1/w-test/%.12s", first, hash)
	}
	if first.State != StateDone || first.CacheHit || len(first.Result) == 0 {
		t.Fatalf("first lease = state %s cacheHit %t result %d bytes, want fresh done result",
			first.State, first.CacheHit, len(first.Result))
	}

	// The retry path: the coordinator re-leases after losing the first
	// response in flight. The worker must serve its cached result, not
	// simulate again.
	status, second, body := lease("job-1", 2, hash)
	if status != http.StatusOK {
		t.Fatalf("re-lease: status %d: %s", status, body)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("re-lease = state %s cacheHit %t, want cached done", second.State, second.CacheHit)
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("cached lease result differs:\n%s\nvs\n%s", second.Result, first.Result)
	}
	if n := s.ExecutedJobs(); n != 1 {
		t.Fatalf("ExecutedJobs = %d after lease + retry, want exactly 1", n)
	}

	// A routing-key mismatch is an integrity failure, rejected up front.
	status, _, body = lease("job-2", 1, strings.Repeat("ab", 32))
	if status != http.StatusBadRequest || !strings.Contains(string(body), "hash mismatch") {
		t.Fatalf("mismatched hash: status %d body %s, want 400 hash mismatch", status, body)
	}
	// An invalid cell is rejected before hashing.
	resp, body := postJSON(t, client, ts.URL+"/v1/lease/execute", LeaseExecuteRequest{
		JobID: "job-3", Simulate: SimulateRequest{Workload: "NOPE"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid cell: status %d body %s, want 400", resp.StatusCode, body)
	}
	if n := s.ExecutedJobs(); n != 1 {
		t.Fatalf("ExecutedJobs = %d after rejected leases, want still 1", n)
	}
}

func decodeLease(t *testing.T, body []byte) LeaseExecuteResponse {
	t.Helper()
	var out LeaseExecuteResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode lease response %s: %v", body, err)
	}
	return out
}

// TestRetryAfterJitterSpread pins the 429/503 backpressure hint's behaviour:
// every hint lands in [base, base+jitter], the sequence actually spreads
// (rejected clients do not re-arrive as one synchronized storm), and the
// splitmix64 sequencing makes it reproducible across identically configured
// servers.
func TestRetryAfterJitterSpread(t *testing.T) {
	const base, jitter, samples = 1, 3, 64
	draw := func() []int {
		s := New(Config{Workers: 1, RetryAfterSeconds: base, RetryAfterJitterSeconds: jitter})
		defer s.Drain(context.Background())
		out := make([]int, samples)
		for i := range out {
			out[i] = s.retryAfterSeconds()
		}
		return out
	}
	a := draw()
	distinct := map[int]bool{}
	for i, v := range a {
		if v < base || v > base+jitter {
			t.Fatalf("hint %d = %d outside [%d, %d]", i, v, base, base+jitter)
		}
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("64 hints used only %d distinct values %v — not spread", len(distinct), distinct)
	}
	for i, v := range draw() {
		if v != a[i] {
			t.Fatalf("hint sequence not deterministic at %d: %d vs %d", i, v, a[i])
		}
	}

	// Negative jitter disables the spread entirely (the exact-header tests
	// rely on this).
	s := New(Config{Workers: 1, RetryAfterSeconds: 2, RetryAfterJitterSeconds: -1})
	defer s.Drain(context.Background())
	for i := 0; i < 8; i++ {
		if v := s.retryAfterSeconds(); v != 2 {
			t.Fatalf("jitter disabled but hint %d = %d, want 2", i, v)
		}
	}
}

// TestReadyzPayload checks the readiness snapshot a fleet coordinator keys
// off: capacity figures from config, and ready=true on a fresh server. (The
// draining flip to 503 is covered by the smoke test.)
func TestReadyzPayload(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 7})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := getJSON(t, ts.Client(), ts.URL+"/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz: status %d body %s", status, body)
	}
	var rs ReadyState
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatalf("decode readyz %s: %v", body, err)
	}
	if !rs.Ready || rs.Draining {
		t.Fatalf("fresh server readyz = %+v, want ready and not draining", rs)
	}
	if rs.Workers != 3 || rs.QueueCapacity != 7 {
		t.Fatalf("readyz capacity = %+v, want workers=3 queue_capacity=7", rs)
	}
}

// smallWriteBufListener shrinks each accepted connection's kernel send
// buffer so a non-reading client backs the server's writes up quickly.
type smallWriteBufListener struct{ net.Listener }

func (l smallWriteBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// dropSignal is a log sink that closes done at the server's first
// "stream dropped" line, so a test can block on the drop itself.
type dropSignal struct {
	once sync.Once
	done chan struct{}
}

func (d *dropSignal) Write(p []byte) (int, error) {
	if strings.Contains(string(p), "stream dropped") {
		d.once.Do(func() { close(d.done) })
	}
	return len(p), nil
}

// TestStreamWriteDeadlineDropsStalledClient connects a client that requests
// an NDJSON stream and then never reads it. Once the socket buffers fill,
// the per-write deadline must trip, the handler must exit (freeing its
// goroutine), and the drop must surface as coscale_streams_dropped_total.
// The job itself keeps running and stays cancellable. The test blocks on
// the server's drop log line rather than polling against a wall clock:
// the job streams lines until cancelled, so the buffers always fill, and
// the deadline trips in either a line's write or the batch's flush —
// both end in a counted drop.
func TestStreamWriteDeadlineDropsStalledClient(t *testing.T) {
	sig := &dropSignal{done: make(chan struct{})}
	s := New(Config{Workers: 1, QueueDepth: 4, StreamWriteTimeout: 250 * time.Millisecond,
		Logger: log.New(sig, "", 0)})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = smallWriteBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()
	client := ts.Client()

	// A long streaming job produces epoch lines continuously.
	slow := SimulateRequest{Workload: "MID1", Instructions: slowBudget, MaxEpochs: slowMaxEpochs, Stream: true}
	resp, body := postJSON(t, client, ts.URL+"/v1/simulate", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	job := decodeJob(t, body)
	waitState(t, client, ts.URL, job.ID, StateRunning)

	// A raw connection that sends the stream request and then stalls: no
	// reads, tiny receive buffer, so backpressure reaches the server fast.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: stalled\r\n\r\n", job.ID)

	<-sig.done
	_, mbody := getJSON(t, client, ts.URL+"/metrics")
	if n := metricValue(t, string(mbody), "coscale_streams_dropped_total"); n != 1 {
		t.Fatalf("coscale_streams_dropped_total = %g after the drop, want 1", n)
	}

	// The drop severed the stream, not the job.
	if st := deleteJob(t, client, ts.URL, job.ID); st != http.StatusAccepted {
		t.Fatalf("cancel after drop: status %d, want job still running", st)
	}
	waitState(t, client, ts.URL, job.ID, StateCancelled)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
