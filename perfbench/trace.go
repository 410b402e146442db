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

// span is one timed call into a layer: its name, its start and end since
// the tracer's epoch, the span that caused it, and the operation it belongs
// to (spans of one operation share Op).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced calls pay one nil check.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// timed runs f inside a span and returns its duration. With a nil tracer it
// only times f.
func (t *tracer) timed(name, tag string, parent, op int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Op: op, Name: name, Tag: tag,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// group opens a parent span whose end is recorded by the returned func.
func (t *tracer) group(name, tag string, parent, op int64) (id int64, done func()) {
	start := time.Now()
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Tag: tag, Start: start.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", n, path)
	return nil
}
