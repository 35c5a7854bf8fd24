package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"xtalk/internal/core"
)

// Spans. The traced run records a span around every call it makes into a
// layer's public functions, and around the calls the serving layer makes
// through its public hooks (the pipeline stage stack, the disk-store wrapper,
// the peer transport). Spans stay in memory until the run ends, then go to a
// JSON-lines file under the work directory.
//
// The replay is sequential: one request is in flight at a time, so the span
// open at the top of the stack is the parent of any span that begins, on
// whichever goroutine the layer runs it.

// span is one timed call.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span, -1 for a root
	rid        int           // request ID shared by a request's spans
	tier       string        // serving tier, for serve.* spans
	children   time.Duration // summed duration of direct children
}

func (s *span) dur() time.Duration  { return s.end - s.start }
func (s *span) self() time.Duration { return s.dur() - s.children }

// tracer collects spans; while off, begin and end do nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	stack []int
	rid   int
	solve []solveRecord
}

// solveRecord is one schedule stage's outcome as the returned SolveStats
// and the stage's wall time report it.
type solveRecord struct {
	stats   core.SolveStats
	elapsed time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request ID for the spans that follow.
func (t *tracer) request(id int) {
	t.mu.Lock()
	t.rid = id
	t.mu.Unlock()
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its handle (-1 while tracing is off).
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, rid: t.rid})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	now := time.Since(t.t0)
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	if s.parent >= 0 {
		t.spans[s.parent].children += s.dur()
	}
}

func (t *tracer) setTier(i int, tier string) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].tier = tier
	t.mu.Unlock()
}

func (t *tracer) recordSolve(r solveRecord) {
	t.mu.Lock()
	if t.on {
		t.solve = append(t.solve, r)
	}
	t.mu.Unlock()
}

// selfTimes returns the self times of the spans named name (and, when tier
// is non-empty, served from that tier).
func (t *tracer) selfTimes(name, tier string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.name == name && (tier == "" || s.tier == tier) {
			out = append(out, s.self())
		}
	}
	return out
}

// durations returns the full durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, t.spans[i].dur())
		}
	}
	return out
}

// write saves the spans as JSON lines, times in microseconds since the
// tracer started.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		rec := struct {
			ID     int     `json:"id"`
			Name   string  `json:"name"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
			Parent int     `json:"parent"`
			RID    int     `json:"rid"`
			Tier   string  `json:"tier,omitempty"`
		}{i, s.name, float64(s.start) / 1e3, float64(s.end) / 1e3, s.parent, s.rid, s.tier}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOf is the median of ds in the given unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
