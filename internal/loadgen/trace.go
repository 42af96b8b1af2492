package loadgen

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request or op
// share Req; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs execute the same code with tracing off.
type Tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer's clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Now returns nanoseconds since the tracer started (0 when nil).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// NewID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Span records a span named name from start until now and returns its
// duration in nanoseconds. id 0 reserves a fresh one.
func (t *Tracer) Span(id, parent, req int64, name string, start int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	end := t.Now()
	t.Add(Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return end - start
}

// Spans returns a snapshot of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one JSON object per span, tagged with the workload.
func (t *Tracer) WriteJSONL(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		line := struct {
			Workload string `json:"workload"`
			Span
		}{workload, s}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanStats indexes a span set: durations and self times by name. A span's
// self time is its duration minus the part of it its children cover.
type spanStats struct {
	dur  map[string][]float64 // ns
	self map[string][]float64 // ns
	// rootDur and rootSelf sum the generator's op spans, whose self time
	// is the op time no layer span accounts for.
	rootDur, rootSelf float64
}

func analyze(spans []Span) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		self := d - float64(covered(s, kids[s.ID]))
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.self[s.Name] = append(st.self[s.Name], self)
		if s.Parent == 0 && strings.HasPrefix(s.Name, "loadgen.") {
			st.rootDur += d
			st.rootSelf += self
		}
	}
	return st
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent Span, children []Span) int64 {
	if len(children) == 0 {
		return 0
	}
	c := append([]Span(nil), children...)
	sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	var total int64
	cur, end := parent.Start, parent.Start
	for _, s := range c {
		a, b := max(s.Start, parent.Start), min(s.End, parent.End)
		if b <= a {
			continue
		}
		if a > end {
			total += end - cur
			cur = a
		}
		end = max(end, b)
	}
	return total + end - cur
}

// p returns the p-th percentile of the named spans' durations in unit
// (time.Microsecond, time.Millisecond, ...).
func (st spanStats) p(name string, p float64, unit time.Duration) float64 {
	return pct(st.dur[name], p) / float64(unit)
}

// total sums the named spans' durations in seconds.
func (st spanStats) total(name string) float64 {
	sum := 0.0
	for _, d := range st.dur[name] {
		sum += d
	}
	return sum / 1e9
}

func (st spanStats) totalSelf(name string) float64 {
	sum := 0.0
	for _, d := range st.self[name] {
		sum += d
	}
	return sum / 1e9
}

// unattributedPct is the share of root-span time not covered by any child
// span.
func (st spanStats) unattributedPct() float64 {
	if st.rootDur <= 0 {
		return 0
	}
	return 100 * st.rootSelf / st.rootDur
}
