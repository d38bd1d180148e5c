package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// steppedClock hands out strictly increasing fake timestamps.
type steppedClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *steppedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestSpanRecorderLifecycleAndLegs(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := NewSpanRecorder(func() time.Time { return base })

	r.Lifecycle("validate", base, base.Add(time.Millisecond), nil)
	r.Instant("enqueue", base.Add(time.Millisecond), nil)
	// Two overlapping legs must land on different tracks; a third that
	// starts after the first ends reuses track 1.
	r.Span("legA", "leg", base.Add(2*time.Millisecond), base.Add(10*time.Millisecond), nil)
	r.Span("legB", "leg", base.Add(3*time.Millisecond), base.Add(9*time.Millisecond), nil)
	r.Span("legC", "leg", base.Add(11*time.Millisecond), base.Add(12*time.Millisecond), nil)

	byName := map[string]TraceEvent{}
	for _, ev := range r.events {
		if ev.Ph != "M" {
			byName[ev.Name] = ev
		}
	}
	if got := byName["validate"]; got.TID != 0 || got.Ph != "X" {
		t.Errorf("validate span = %+v, want X on tid 0", got)
	}
	if got := byName["enqueue"]; got.Ph != "i" {
		t.Errorf("enqueue = %+v, want instant", got)
	}
	a, b, c := byName["legA"], byName["legB"], byName["legC"]
	if a.TID == b.TID {
		t.Errorf("overlapping legs share tid %d", a.TID)
	}
	if c.TID != a.TID {
		t.Errorf("legC tid = %d, want reuse of legA's track %d", c.TID, a.TID)
	}
	if a.Dur != 8000 {
		t.Errorf("legA dur = %v µs, want 8000", a.Dur)
	}
}

func TestSpanRecorderJSONSchema(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := NewSpanRecorder(func() time.Time { return base })
	r.Lifecycle("run", base, base.Add(time.Second), map[string]any{"k": "v"})
	b, err := r.JSON(map[string]any{"job": "job-000001"})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["job"] != "job-000001" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
}

func TestSpanRecorderEmptyJSON(t *testing.T) {
	r := NewSpanRecorder(nil)
	b, err := r.JSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil {
		t.Fatal("traceEvents must serialize as [], not null")
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	clk := &steppedClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), step: time.Microsecond}
	r := NewSpanRecorder(clk.Now)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s := clk.Now()
				r.Span("leg", "leg", s, s.Add(time.Microsecond), nil)
			}
		}()
	}
	wg.Wait()
	spans := 0
	for _, ev := range r.events {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 800 {
		t.Fatalf("recorded %d spans, want 800", spans)
	}
}
