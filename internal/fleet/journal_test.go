package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coscale/internal/server"
)

// normSweep returns a small normalized sweep request for store tests.
func normSweep(t *testing.T, workloads, policies []string) server.SweepRequest {
	t.Helper()
	n, err := server.SweepRequest{Workloads: workloads, Policies: policies}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mustStatus reads a sweep's status through the commit barrier, failing
// the test on a sync error or an unknown sweep.
func mustStatus(t *testing.T, st *Store, id string) SweepStatus {
	t.Helper()
	stat, ok, err := st.Status(id)
	if err != nil || !ok {
		t.Fatalf("Status(%s) = (ok %v, %v), want the sweep", id, ok, err)
	}
	return stat
}

// TestJournalTornTailRecovery is the crash-recovery scenario: a journal
// truncated mid-record (a torn write) reopens cleanly, recovers every
// committed job, and discards the torn tail so the next append starts on a
// record boundary.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	req := normSweep(t, []string{"MEM1", "MIX1"}, []string{"CoScale"})
	id, total, err := st.AddSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("AddSweep total = %d, want 2", total)
	}
	job0 := fmtJobID(id, 0)
	if _, err := st.Lease(job0, "w1"); err != nil {
		t.Fatal(err)
	}
	if committed, err := st.Done(job0, json.RawMessage(`{"ok":1}`)); err != nil || !committed {
		t.Fatalf("Done = (%v, %v), want committed", committed, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: the file ends in half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"t":"done","job":"` + fmtJobID(id, 1) + `","result":{"ok"`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer st2.Close()
	stat := mustStatus(t, st2, id)
	if stat.Done != 1 || stat.Pending != 1 {
		t.Fatalf("replayed status = %+v, want 1 done / 1 pending", stat)
	}
	if got := string(stat.Cells[0].Result); got != `{"ok":1}` {
		t.Fatalf("committed result lost: %q", got)
	}
	// The torn job's uncommitted record must be gone, not half-applied.
	if stat.Cells[1].State != JobPending {
		t.Fatalf("torn-tail cell state = %q, want pending", stat.Cells[1].State)
	}

	// The tail was physically truncated, and the journal appends cleanly
	// after recovery.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)-len(torn) {
		t.Fatalf("journal length = %d, want %d (torn tail truncated)", len(after), len(before)-len(torn))
	}
	if _, err := st2.Lease(fmtJobID(id, 1), "w2"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestJournalMidFileCorruption distinguishes corruption from a torn tail: a
// malformed line with committed records after it is an error, not something
// to silently drop.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	lines := `{"t":"sweep","sweep":"s0","req":{}}` + "\n" +
		`this is not json` + "\n" +
		`{"t":"job","job":"s0/0","sweep":"s0","hash":"h","cell":{"workload":"MEM1"}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("OpenStore = %v, want mid-file corruption error", err)
	}
}

// TestStoreRestartReplay verifies the replay semantics a coordinator restart
// relies on: done results survive verbatim, leased-at-crash jobs return to
// pending with their attempt count intact, and the sweep sequence resumes
// past recovered sweeps.
func TestStoreRestartReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	req := normSweep(t, []string{"MEM1", "MIX1"}, []string{"CoScale"})
	id, _, err := st.AddSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Lease(fmtJobID(id, 0), "w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Done(fmtJobID(id, 0), json.RawMessage(`{"r":0}`)); err != nil {
		t.Fatal(err)
	}
	// Job 1 is mid-lease on attempt 2 at "crash" time.
	if _, err := st.Lease(fmtJobID(id, 1), "w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fail(fmtJobID(id, 1), 1, "cut", 4, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Lease(fmtJobID(id, 1), "w1"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stat := mustStatus(t, st2, id)
	if stat.Done != 1 || string(stat.Cells[0].Result) != `{"r":0}` {
		t.Fatalf("done cell not recovered: %+v", stat.Cells[0])
	}
	c1 := stat.Cells[1]
	if c1.State != JobPending || c1.Attempts != 2 {
		t.Fatalf("leased-at-crash cell = state %q attempts %d, want pending/2", c1.State, c1.Attempts)
	}
	// New sweeps continue the sequence instead of colliding with s0.
	id2, _, err := st2.AddSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("sweep sequence reused %q after replay", id2)
	}
}
