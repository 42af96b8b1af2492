package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// slowBudget with a raised max_epochs cap keeps a job running for tens of
// seconds (it would take ~500k epochs to finish), giving the test time to
// observe running state, queue overflow and mid-stream cancellation; every
// slow job is cancelled, never run to completion.
const (
	slowBudget    = 500_000_000_000
	slowMaxEpochs = 1_000_000
)

func getJSON(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, []byte(sb.String())
}

func deleteJob(t *testing.T, client *http.Client, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitState polls a job until it reaches want (fatal on timeout, or on a
// terminal state other than want).
func waitState(t *testing.T, client *http.Client, base, id, want string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body := getJSON(t, client, base+"/v1/jobs/"+id)
		if status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("job %s: status %d: %s", id, status, body)
		}
		j := decodeJob(t, body)
		if j.State == want {
			return j
		}
		if terminal(j.State) {
			t.Fatalf("job %s: reached %s while waiting for %s (error %q)", id, j.State, want, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: still %s after 60s waiting for %s", id, j.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitIdle polls /readyz until no job is queued or running.
func waitIdle(t *testing.T, client *http.Client, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body := getJSON(t, client, base+"/readyz")
		var rs ReadyState
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatalf("readyz: status %d: decode %s: %v", status, body, err)
		}
		if rs.QueueDepth == 0 && rs.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still busy after 60s: %+v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue extracts one metric from the plaintext /metrics payload.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: parse %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestServeSmoke drives the acceptance scenario end to end on one server:
// a saturated worker pool, in-flight dedup, queue overflow with 429 and
// Retry-After, mid-stream cancellation that frees the worker slot, a cache
// hit on a repeated request reflected in /metrics, and graceful drain.
func TestServeSmoke(t *testing.T) {
	// Jitter is disabled so the Retry-After assertion below is exact; the
	// jittered spread has its own test in lease_test.go.
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 16, RetryAfterJitterSeconds: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	slow := func(mig int) SimulateRequest {
		return SimulateRequest{Workload: "MID1", Instructions: slowBudget, MaxEpochs: slowMaxEpochs, MigrateEvery: mig, Stream: true}
	}

	// Occupy the single worker with a long streaming job.
	resp, body := postJSON(t, client, ts.URL+"/v1/simulate", slow(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: status %d: %s", resp.StatusCode, body)
	}
	jobA := decodeJob(t, body)
	waitState(t, client, ts.URL, jobA.ID, StateRunning)

	// An identical request while A is in flight attaches to A (dedup).
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate", slow(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dedup submit: status %d: %s", resp.StatusCode, body)
	}
	if dup := decodeJob(t, body); dup.ID != jobA.ID {
		t.Fatalf("dedup submit got job %s, want %s", dup.ID, jobA.ID)
	}

	// A distinct job fills the queue...
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate", slow(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: status %d: %s", resp.StatusCode, body)
	}
	jobB := decodeJob(t, body)

	// ...and the next distinct one overflows it: 429 plus a Retry-After hint.
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate", slow(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C: status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want \"1\"", ra)
	}

	// Stream A: read a couple of live epoch lines, cancel mid-stream, and
	// require the terminal "cancelled" line.
	streamResp, err := client.Get(ts.URL + "/v1/jobs/" + jobA.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	scanner := bufio.NewScanner(streamResp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	epochs, finals := 0, 0
	var finalType string
	for scanner.Scan() {
		var line streamLine
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", scanner.Text(), err)
		}
		if line.Type == "epoch" {
			if line.CoreHz == nil || line.MemHz <= 0 {
				t.Fatalf("epoch line missing frequencies: %q", scanner.Text())
			}
			epochs++
			if epochs == 2 {
				if st := deleteJob(t, client, ts.URL, jobA.ID); st != http.StatusAccepted {
					t.Fatalf("cancel A: status %d", st)
				}
			}
			continue
		}
		finals++
		finalType = line.Type
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if epochs < 2 {
		t.Fatalf("saw %d epoch lines, want >= 2", epochs)
	}
	if finals != 1 || finalType != "cancelled" {
		t.Fatalf("stream ended with %d final lines (last %q), want one \"cancelled\"", finals, finalType)
	}
	waitState(t, client, ts.URL, jobA.ID, StateCancelled)

	// Cancelling A hands the worker to B; cancel that too.
	if st := deleteJob(t, client, ts.URL, jobB.ID); st != http.StatusAccepted {
		t.Fatalf("cancel B: status %d", st)
	}
	waitState(t, client, ts.URL, jobB.ID, StateCancelled)

	// A second cancel of a terminal job conflicts.
	if st := deleteJob(t, client, ts.URL, jobA.ID); st != http.StatusConflict {
		t.Fatalf("re-cancel A: status %d, want 409", st)
	}

	// The cancelled jobs freed the worker slot: a small job now completes.
	// B can be cancelled while it still sits in the 1-deep queue, and
	// stays there until the worker, still unwinding A, dequeues it; wait
	// for the server to go idle, or the post can meet a full queue and 429.
	waitIdle(t, client, ts.URL)
	small := SimulateRequest{Workload: "ILP1", Instructions: 2_000_000}
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate?wait=1", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small job: status %d: %s", resp.StatusCode, body)
	}
	first := decodeJob(t, body)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("small job: state %s cacheHit %t, want fresh done", first.State, first.CacheHit)
	}

	// Repeating it is a cache hit with the identical result.
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate?wait=1", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat job: status %d: %s", resp.StatusCode, body)
	}
	second := decodeJob(t, body)
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("repeat job: state %s cacheHit %t, want cached done", second.State, second.CacheHit)
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", second.Result, first.Result)
	}

	// A small sweep over two workloads on the identical default platform:
	// every cell's evaluators draw their platform tables from the runner's
	// shared cache, so the sweep adds cache hits but no new builds.
	sweep := SweepRequest{Workloads: []string{"ILP1", "MID1"}, Policies: []string{"CoScale"}, Instructions: 2_000_000}
	resp, body = postJSON(t, client, ts.URL+"/v1/sweep?wait=1", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep job: status %d: %s", resp.StatusCode, body)
	}

	// /metrics reflects all of the above.
	status, mbody := getJSON(t, client, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	m := string(mbody)
	for name, min := range map[string]float64{
		"coscale_cache_hits_total":       1,
		"coscale_cache_hit_rate":         0.01,
		"coscale_jobs_rejected_total":    1,
		"coscale_jobs_deduped_total":     1,
		"coscale_jobs_cancelled_total":   2,
		"coscale_jobs_done_total":        1,
		"coscale_epochs_simulated_total": 1,
		"coscale_search_decisions_total": 1,
		"coscale_search_duration_ns_sum": 1,
		"coscale_search_duration_ns_max": 1,
	} {
		if v := metricValue(t, m, name); v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	if v := metricValue(t, m, "coscale_jobs_running"); v != 0 {
		t.Errorf("coscale_jobs_running = %v, want 0", v)
	}
	// Every policy run above — the streamed jobs, the small simulate pair,
	// and the whole sweep — described the identical default platform, so the
	// shared table cache built it exactly once and served every other
	// evaluator from that build.
	if v := metricValue(t, m, "coscale_tables_builds_total"); v != 1 {
		t.Errorf("coscale_tables_builds_total = %v, want exactly 1 (identical platforms share one build)", v)
	}
	if v := metricValue(t, m, "coscale_tables_cache_hits_total"); v < 3 {
		t.Errorf("coscale_tables_cache_hits_total = %v, want >= 3", v)
	}

	// The fleet agent's budget hook publishes the power-cap gauges: the
	// assigned slice, the fleet budget it came from, and a counter that
	// moves only when the slice actually changes.
	s.SetPowerCap(120, 360)
	s.SetPowerCap(120, 360) // identical slice: no rebalance counted
	s.SetPowerCap(90, 360)
	_, mbody = getJSON(t, client, ts.URL+"/metrics")
	m = string(mbody)
	if v := metricValue(t, m, "coscale_powercap_budget_watts"); v != 360 {
		t.Errorf("coscale_powercap_budget_watts = %v, want 360", v)
	}
	if v := metricValue(t, m, "coscale_powercap_assigned_watts"); v != 90 {
		t.Errorf("coscale_powercap_assigned_watts = %v, want 90", v)
	}
	if v := metricValue(t, m, "coscale_powercap_rebalances_total"); v != 2 {
		t.Errorf("coscale_powercap_rebalances_total = %v, want 2 (one initial assignment, one change)", v)
	}
	if asg, fleetB := s.PowerCap(); asg != 90 || fleetB != 360 {
		t.Errorf("PowerCap() = (%v, %v), want (90, 360)", asg, fleetB)
	}

	// Graceful drain: returns once idle, and submissions refuse with 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/simulate", small)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d: %s", resp.StatusCode, body)
	}
	// Liveness stays green while draining; readiness flips to 503 and
	// reports the drain so a coordinator stops routing here.
	status, hbody := getJSON(t, client, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("post-drain healthz: status %d body %s", status, hbody)
	}
	status, rbody := getJSON(t, client, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(rbody), `"draining":true`) {
		t.Fatalf("post-drain readyz: status %d body %s", status, rbody)
	}
}

// TestWaitedJobNotRunning pins the order in which a worker settles a job:
// by the time a ?wait=1 request returns, its job no longer counts as
// running, so a /metrics read right after the response must show
// coscale_jobs_running 0. Each request is distinct, so every one runs.
func TestWaitedJobNotRunning(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	for k := range 100 {
		req := SimulateRequest{Workload: "ILP1", Policy: "MemScale", Instructions: 100_000 + uint64(k)}
		resp, body := postJSON(t, client, ts.URL+"/v1/simulate?wait=1", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, resp.StatusCode, body)
		}
		if job := decodeJob(t, body); job.State != StateDone || job.CacheHit {
			t.Fatalf("request %d: state %s cacheHit %t, want a fresh done job", k, job.State, job.CacheHit)
		}
		_, m := getJSON(t, client, ts.URL+"/metrics")
		if v := metricValue(t, string(m), "coscale_jobs_running"); v != 0 {
			t.Fatalf("request %d: coscale_jobs_running = %v after its waited response, want 0", k, v)
		}
	}
}

// TestServerValidation covers the API error paths.
func TestServerValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	post := func(path, body string) (int, string) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/simulate", `{"workload":"NOPE"}`, http.StatusBadRequest},
		{"/v1/simulate", `{}`, http.StatusBadRequest},
		{"/v1/simulate", `{"workload":"MEM1","policy":"Magic"}`, http.StatusBadRequest},
		{"/v1/simulate", `{"workload":"MEM1","typo_field":1}`, http.StatusBadRequest},
		{"/v1/simulate", `{"workload":"MEM1"} trailing`, http.StatusBadRequest},
		{"/v1/sweep", `{"workloads":["MEM1","MEM1"]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		status, body := post(c.path, c.body)
		if status != c.status {
			t.Errorf("POST %s %s: status %d, want %d (%s)", c.path, c.body, status, c.status, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("POST %s %s: error body %q lacks error field", c.path, c.body, body)
		}
	}

	if status, _ := getJSON(t, client, ts.URL+"/v1/jobs/nope"); status != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", status)
	}
	if st := deleteJob(t, client, ts.URL, "nope"); st != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", st)
	}
}
