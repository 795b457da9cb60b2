package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Every span of one operation carries the
// operation's ID; Parent is the ID of the span that caused it (-1 for an
// operation's root span).
type span struct {
	Op     uint64 `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerLane bounds the memory a traced run spends on spans; spans
// past the cap are counted, not kept.
const maxSpansPerLane = 1 << 17

// tracer keeps spans in memory, one lane per recording goroutine so the
// hot path takes no lock, and writes them out when the run ends. Times are
// nanoseconds on the monotonic clock since the tracer was created.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	lanes   []*lane
	dropped int64
}

// lane is one goroutine's span buffer.
type lane struct {
	t      *tracer
	idx    int64
	spans  []span
	nextOp uint64
}

func newTracer() *tracer { return &tracer{base: clock()} }

// lane returns a fresh span buffer for one goroutine.
func (t *tracer) lane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, idx: int64(len(t.lanes))}
	t.lanes = append(t.lanes, l)
	return l
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(since(t.base)) }

// op starts a new operation and returns its ID, unique across lanes.
func (l *lane) op() uint64 {
	l.nextOp++
	return uint64(l.idx)<<40 | l.nextOp
}

// add records a span and returns its ID, or -1 when the lane is full.
func (l *lane) add(op uint64, parent int64, name string, start, end int64) int64 {
	if len(l.spans) >= maxSpansPerLane {
		l.t.mu.Lock()
		l.t.dropped++
		l.t.mu.Unlock()
		return -1
	}
	id := l.idx<<40 | int64(len(l.spans))
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// end closes a span added with a provisional end, once its children are
// in.
func (l *lane) end(id int64, t int64) {
	if id >= 0 {
		l.spans[id&(1<<40-1)].End = t
	}
}

// at converts a wall-clock reading to the tracer clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

// count is the number of spans kept.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// selfTime is one span name's share of a traced run.
type selfTime struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // minus the time their child spans cover
}

// selfTimes sums each span name's duration and self time: a span's
// duration minus the part its children cover. Children of one span run on
// the parent's goroutine, one after another, so they never overlap.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	lanes := t.lanes
	t.mu.Unlock()
	by := make(map[string]*selfTime)
	var order []string
	for _, l := range lanes {
		childSum := make(map[int64]int64)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				childSum[s.Parent] += s.End - s.Start
			}
		}
		for _, s := range l.spans {
			st := by[s.Name]
			if st == nil {
				st = &selfTime{name: s.Name}
				by[s.Name] = st
				order = append(order, s.Name)
			}
			st.count++
			st.total += time.Duration(s.End - s.Start)
			st.self += time.Duration(s.End - s.Start - childSum[s.ID])
		}
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

// write stores the spans as JSON lines, after a first line holding the
// host fingerprint, and returns the file's path.
func (t *tracer) write(opt options, host []byte) (string, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if _, err := fmt.Fprintf(bw, "{\"host\":%s}\n", host); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	lanes := t.lanes
	t.mu.Unlock()
	for _, l := range lanes {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				return "", fmt.Errorf("spans: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
