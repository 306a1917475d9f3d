package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program: name,
// start, end, the span that caused it, and the call's attributes. Spans stay
// in memory until write. A nil *tracer records nothing, so untraced passes
// run the same code at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one recorded interval; times are nanoseconds since the tracer
// started. Parent 0 marks a root.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	open   bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: now.Sub(t.t0).Nanoseconds(), open: true,
	})
	return len(t.spans)
}

// end closes span id with its attributes.
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now.Sub(t.t0).Nanoseconds()
	s.Attrs = attrs
	s.open = false
}

// record adds a closed span with explicit bounds, for intervals observed
// from outside (a job's queue wait between its send and its job.start).
func (t *tracer) record(name string, parent int, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs,
	})
	return len(t.spans)
}

// selfTimes sums each span name's self time: its duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]*span)
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			children[p] = append(children[p], &t.spans[i])
		}
	}
	out := make(map[string]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		if s.open {
			continue
		}
		covered := coveredNs(s, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent.
func coveredNs(p *span, kids []*span) int64 {
	var (
		total, reach int64
		iv           [][2]int64
	)
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if !k.open && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	reach = p.Start
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			total += x[1] - lo
			reach = x[1]
		}
	}
	return total
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// spanFile names a traced run's span file.
func spanFile(cfg config) string {
	return fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
}
