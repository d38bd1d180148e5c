package main

import (
	"sync"
	"time"

	"timecache/internal/telemetry"
)

// legSpans is the benchmark's span sink for harness.Options.Spans: it keeps
// every leg span in memory (name, duration, and the simulated counters the
// harness attaches) for the traced run to reduce at the end.
type legSpans struct {
	mu    sync.Mutex
	spans []legSpan
}

type legSpan struct {
	name         string
	dur          time.Duration
	simCycles    uint64
	instructions uint64
}

var _ telemetry.SpanSink = (*legSpans)(nil)

// Span implements telemetry.SpanSink.
func (s *legSpans) Span(name, cat string, start, end time.Time, args map[string]any) {
	sp := legSpan{name: name, dur: end.Sub(start)}
	if v, ok := args["sim_cycles"].(uint64); ok {
		sp.simCycles = v
	}
	if v, ok := args["instructions"].(uint64); ok {
		sp.instructions = v
	}
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// durations returns every recorded leg's duration in milliseconds.
func (s *legSpans) durations() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.spans))
	for i, sp := range s.spans {
		out[i] = float64(sp.dur) / float64(time.Millisecond)
	}
	return out
}

// find returns the first recorded span with the given name.
func (s *legSpans) find(name string) (legSpan, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		if sp.name == name {
			return sp, true
		}
	}
	return legSpan{}, false
}
