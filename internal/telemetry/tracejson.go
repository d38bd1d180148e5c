package telemetry

import (
	"encoding/json"
	"fmt"
)

// TraceEvent is one Chrome trace-event record (the subset of the Trace
// Event Format that Perfetto and chrome://tracing load: complete "X" spans,
// instant "i" events, and "M" metadata).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON Object Format wrapper.
type traceFile struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// DefaultCyclesPerUs is the paper's 2 GHz clock.
const DefaultCyclesPerUs = 2000

// tracePID is the single "process" the machine's cores appear under.
const tracePID = 1

// TraceBuilder accumulates trace events in memory; JSON() serializes them as
// a Perfetto-loadable Chrome trace. Timestamps are simulation cycles
// converted to microseconds at CyclesPerUs.
type TraceBuilder struct {
	cyclesPerUs float64
	events      []TraceEvent
	named       map[int]bool
}

// NewTraceBuilder creates a builder (cyclesPerUs 0 = DefaultCyclesPerUs).
func NewTraceBuilder(cyclesPerUs float64) *TraceBuilder {
	if cyclesPerUs <= 0 {
		cyclesPerUs = DefaultCyclesPerUs
	}
	return &TraceBuilder{cyclesPerUs: cyclesPerUs, named: map[int]bool{}}
}

func (t *TraceBuilder) us(cycles uint64) float64 { return float64(cycles) / t.cyclesPerUs }

// nameCore emits the thread-name metadata for a core once.
func (t *TraceBuilder) nameCore(core int) {
	if t.named[core] {
		return
	}
	t.named[core] = true
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: core,
		Args: map[string]any{"name": fmt.Sprintf("core%d", core)},
	})
}

// Complete records an "X" span of [start, end] cycles on a core's track.
func (t *TraceBuilder) Complete(name, cat string, core int, start, end uint64, args map[string]any) {
	t.nameCore(core)
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X", PID: tracePID, TID: core,
		Ts: t.us(start), Dur: t.us(end - start), Args: args,
	})
}

// Instant records an "i" event at ts cycles on a core's track.
func (t *TraceBuilder) Instant(name, cat string, core int, ts uint64, args map[string]any) {
	t.nameCore(core)
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", PID: tracePID, TID: core,
		Ts: t.us(ts), S: "t", Args: args,
	})
}

// Len returns the number of recorded events.
func (t *TraceBuilder) Len() int { return len(t.events) }

// JSON serializes the trace in the Chrome trace-event JSON Object Format.
func (t *TraceBuilder) JSON(other map[string]any) ([]byte, error) {
	return marshalTraceFile(t.events, other)
}

// marshalTraceFile wraps events in the JSON Object Format; TraceBuilder
// (simulation-cycle traces) and SpanRecorder (wall-clock job traces) share
// it so both outputs load in the same viewers.
func marshalTraceFile(events []TraceEvent, other map[string]any) ([]byte, error) {
	f := traceFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       other,
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	return json.MarshalIndent(f, "", " ")
}
