package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"coscale/internal/server"
)

// record is one journal line. Type discriminates; the remaining fields are
// a union, omitted when empty, so every record is a single self-describing
// JSON object on its own line.
//
// Record types:
//
//	sweep  — a sweep was admitted (Sweep + Req; its job records follow)
//	job    — one cell of a sweep (Job, Sweep, Index, Hash, Cell)
//	lease  — attempt N of a job was dispatched to a worker
//	fail   — attempt N failed (transport error, timeout, worker death)
//	done   — a job committed its result (durable at the next sync, which
//	         the store runs before any status read can show it)
//	failed — a job exhausted its attempt cap (synced the same way)
type record struct {
	Type    string                  `json:"t"`
	Sweep   string                  `json:"sweep,omitempty"`
	Job     string                  `json:"job,omitempty"`
	Index   int                     `json:"index,omitempty"`
	Hash    string                  `json:"hash,omitempty"`
	Worker  string                  `json:"worker,omitempty"`
	Attempt int                     `json:"attempt,omitempty"`
	Err     string                  `json:"err,omitempty"`
	Req     *server.SweepRequest    `json:"req,omitempty"`
	Cell    *server.SimulateRequest `json:"cell,omitempty"`
	Result  json.RawMessage         `json:"result,omitempty"`
}

// journal is the append-only JSON-lines file behind the Store. A nil
// journal (no path configured) is a valid no-op: the store is then purely
// in-memory and a coordinator restart starts empty.
//
// The journal tracks how much of the file its last fsync covered: size is
// the byte length written, synced the length the last successful fsync
// made durable, so size > synced means records a power loss could drop.
type journal struct {
	f      *os.File
	size   int64 // bytes written
	synced int64 // bytes covered by the last fsync
	syncs  int64 // fsyncs run
	err    error // the first failed fsync, returned by every later sync
}

// openJournal opens (creating if needed) the journal at path and recovers
// its committed prefix: every whole, parseable line is returned in order; a
// torn final line — a crash mid-write — is discarded and truncated away so
// the next append starts on a record boundary. A malformed line that is
// *not* the final one is corruption, not a torn write, and is an error.
func openJournal(path string) (*journal, []record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, keep, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fleet: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	// synced starts at 0: the recovered records may be ones a crashed
	// predecessor wrote and never synced.
	return &journal{f: f, size: keep}, recs, nil
}

// scanJournal parses the journal, returning the recovered records and the
// byte offset of the end of the last committed record.
func scanJournal(r io.Reader) (recs []record, keep int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			// A final line without its newline is torn by definition, even
			// when what the crash left of it parses: every append ends in a
			// newline, and the next one must start on a record boundary.
			return recs, keep, nil
		}
		if rerr != nil {
			return nil, 0, rerr
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var rec record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				// More records may follow this one; only then do we peek.
				if _, perr := br.Peek(1); perr == nil {
					return nil, 0, fmt.Errorf("fleet: journal corrupt at offset %d: %w", keep, jerr)
				}
				// Torn tail: a crash interrupted the final append. Drop it.
				return recs, keep, nil
			}
			recs = append(recs, rec)
		}
		keep += int64(len(line))
	}
}

// append writes records without an fsync. Written records survive a
// coordinator crash (they are in the page cache) but not a power or OS
// loss until the next sync covers them. A nil journal accepts and drops
// everything.
func (j *journal) append(recs ...record) error {
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	n, err := j.f.Write(buf.Bytes())
	j.size += int64(n)
	return err
}

// sync is the commit barrier: it fsyncs every record written so far, so
// that they survive a power loss, and is a no-op when the last fsync
// already covered them. A failed fsync is sticky: Linux may drop the dirty
// pages it failed to write and report the next fsync clean, so the journal
// refuses every later sync rather than vouch for records the disk may not
// hold. A nil journal has nothing to sync.
func (j *journal) sync() error {
	if j == nil {
		return nil
	}
	if j.err != nil || j.synced == j.size {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("fleet: journal sync: %w", err)
		return j.err
	}
	j.synced = j.size
	j.syncs++
	return nil
}

// close releases the file. A nil journal is a no-op.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
