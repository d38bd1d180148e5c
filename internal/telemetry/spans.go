package telemetry

import (
	"sync"
	"time"
)

// SpanSink receives wall-clock spans. The job service's per-job
// SpanRecorder implements it; the experiment harness emits one span per
// simulated machine run (leg) into whatever sink its Options carry. A nil
// sink costs callers one comparison.
type SpanSink interface {
	Span(name, cat string, start, end time.Time, args map[string]any)
}

// spanPID is the single "process" a job's spans appear under in the trace.
const spanPID = 1

// lifecycleTID is the reserved track for the job lifecycle spans
// (validate → enqueue → queue-wait → run → render); legs are laid out on
// tracks 1+ so concurrent sweep legs never overlap on one track.
const lifecycleTID = 0

// SpanRecorder accumulates wall-clock spans for one job and serializes them
// as a Chrome trace-event JSON document (the same schema the simulator's
// TraceBuilder emits, so both load in Perfetto / chrome://tracing).
// Timestamps are microseconds relative to the recorder's base time, which is
// fixed by the first recorded event.
//
// A SpanRecorder is safe for concurrent use: the job service records
// lifecycle spans while harness sweep workers record leg spans.
type SpanRecorder struct {
	now func() time.Time

	mu     sync.Mutex
	base   time.Time
	events []TraceEvent
	// trackEnd[i] is the end timestamp (µs) of the last span on leg track
	// i; a new leg span takes the first track it does not overlap.
	trackEnd []float64
	named    map[int]bool
}

var _ SpanSink = (*SpanRecorder)(nil)

// NewSpanRecorder creates a recorder whose timestamps come from now
// (nil = time.Now). The job service injects its wall clock here so traces
// are deterministic under a fake clock.
func NewSpanRecorder(now func() time.Time) *SpanRecorder {
	if now == nil {
		now = time.Now
	}
	return &SpanRecorder{now: now, named: map[int]bool{}}
}

// Now returns the recorder's current wall time (the injected clock).
func (r *SpanRecorder) Now() time.Time { return r.now() }

// us converts t to trace microseconds, pinning the base to the first event.
// Caller holds r.mu.
func (r *SpanRecorder) us(t time.Time) float64 {
	if r.base.IsZero() {
		r.base = t
	}
	return float64(t.Sub(r.base)) / float64(time.Microsecond)
}

// nameTrack emits the track-name metadata once per tid. Caller holds r.mu.
func (r *SpanRecorder) nameTrack(tid int, name string) {
	if r.named[tid] {
		return
	}
	r.named[tid] = true
	r.events = append(r.events, TraceEvent{
		Name: "thread_name", Ph: "M", PID: spanPID, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// Lifecycle records an "X" span on the reserved lifecycle track.
func (r *SpanRecorder) Lifecycle(name string, start, end time.Time, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nameTrack(lifecycleTID, "lifecycle")
	r.events = append(r.events, TraceEvent{
		Name: name, Cat: "lifecycle", Ph: "X", PID: spanPID, TID: lifecycleTID,
		Ts: r.us(start), Dur: r.us(end) - r.us(start), Args: args,
	})
}

// Span implements SpanSink: an "X" span on the first leg track where it
// does not overlap an earlier span (concurrent sweep legs spread across
// tracks instead of stacking on one line).
func (r *SpanRecorder) Span(name, cat string, start, end time.Time, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, te := r.us(start), r.us(end)
	track := -1
	for i, last := range r.trackEnd {
		if last <= ts {
			track = i
			break
		}
	}
	if track == -1 {
		r.trackEnd = append(r.trackEnd, 0)
		track = len(r.trackEnd) - 1
	}
	r.trackEnd[track] = te
	tid := track + 1 // track 0 is the lifecycle line
	r.nameTrack(tid, "legs")
	r.events = append(r.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", PID: spanPID, TID: tid,
		Ts: ts, Dur: te - ts, Args: args,
	})
}

// Instant records an "i" event on the lifecycle track.
func (r *SpanRecorder) Instant(name string, at time.Time, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nameTrack(lifecycleTID, "lifecycle")
	r.events = append(r.events, TraceEvent{
		Name: name, Cat: "lifecycle", Ph: "i", PID: spanPID, TID: lifecycleTID,
		Ts: r.us(at), S: "t", Args: args,
	})
}

// Len returns the number of recorded events.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// JSON serializes the recorded spans in the Chrome trace-event JSON Object
// Format (displayTimeUnit ms, like TraceBuilder).
func (r *SpanRecorder) JSON(other map[string]any) ([]byte, error) {
	r.mu.Lock()
	events := append([]TraceEvent(nil), r.events...)
	r.mu.Unlock()
	return marshalTraceFile(events, other)
}
