package main

import (
	"sync"
	"time"
)

// span is one timed call across a layer boundary.
type span struct {
	name string
	// parent indexes the span that caused this one (-1 for a root).
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps the spans of a traced run in memory. Safe for concurrent
// use: shard steps open spans from worker goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	return now - t.spans[i].start
}

// durations returns the durations of the closed spans with a name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// busy returns the summed duration of the spans with a name, in seconds.
func (t *tracer) busy(name string) float64 { return sum(t.durations(name)) }

func sum(ds []time.Duration) float64 {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total.Seconds()
}

// layer accumulates one layer's calls in a serial replay.
type layer struct {
	durs []time.Duration
}

// since records a call that started at t0.
func (l *layer) since(t0 time.Time) { l.durs = append(l.durs, time.Since(t0)) }

func (l *layer) calls() int          { return len(l.durs) }
func (l *layer) busyS() float64      { return sum(l.durs) }
func (l *layer) p(q float64) float64 { return percentile(l.durs, q) }
