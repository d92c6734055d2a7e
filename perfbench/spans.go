package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call (the program itself carries no tracing). Spans caused by
// one scrape tick's push share Trace (the tick index); Parent names the
// span in the same trace that caused this one ("" for a root, and Trace -1
// for probe spans outside any push).
type span struct {
	Trace  int64  `json:"trace"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int64  `json:"items"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a run; write dumps them
// when the run ends. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since converts a wall time to the tracer's clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span.
func (t *tracer) add(trace int64, parent, name string, start, end time.Time, items int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Trace: trace, Parent: parent, Name: name,
		Start: t.since(start), End: t.since(end), Items: items,
	})
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, for durations' from.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations, in unit, of the spans with the given
// name recorded at or after index from.
func (t *tracer) durations(name string, unit time.Duration, from int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			d = append(d, float64(s.dur())/float64(unit))
		}
	}
	return d
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // already failing; the encode error is the one to report
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // already failing; the flush error is the one to report
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
