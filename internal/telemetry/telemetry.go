// Package telemetry is the simulator's observability layer: an interval
// sampler that turns machine counters into time series (MPKI, hit rate,
// first-access rate, per-process IPC), log2 latency histograms per cache
// level and access class, a Chrome trace-event JSON exporter whose output
// loads in Perfetto / chrome://tracing, and JSON run manifests.
//
// The Collector implements both the cache hierarchy's Observer hook and the
// kernel's Probe hook; Attach installs it on a machine. When no collector is
// attached, the hooks cost the hierarchy and scheduler one nil check each
// (see BenchmarkAccessTelemetryDisabled in internal/cache).
package telemetry

import (
	"fmt"
	"os"
	"strings"
	"time"

	"timecache/internal/cache"
	"timecache/internal/kernel"
)

func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// Config selects what a Collector records and where Finish writes it. Output
// paths left empty are not written; a zero Config records samples and
// histograms in memory only.
type Config struct {
	// SampleEvery is the interval-sampler period in instruction steps
	// (DefaultSampleEvery when zero).
	SampleEvery uint64
	// CyclesPerUs converts simulation cycles to trace-JSON microseconds
	// (DefaultCyclesPerUs when zero; the paper models a 2 GHz clock).
	CyclesPerUs float64
	// TraceAccesses adds one instant event per memory access to the trace.
	// Very verbose: use only with small instruction budgets.
	TraceAccesses bool

	// MetricsCSV is the interval-metrics CSV output path.
	MetricsCSV string
	// HistogramCSV is the latency-histogram CSV output path.
	HistogramCSV string
	// TraceJSON is the Chrome trace-event JSON output path.
	TraceJSON string
	// ManifestJSON is the run-manifest output path.
	ManifestJSON string
}

// WithSuffix returns a copy of the config with "_suffix" inserted before the
// extension of every output path, so one config can label many runs.
func (c Config) WithSuffix(suffix string) Config {
	ins := func(path string) string {
		if path == "" {
			return ""
		}
		if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
			return path[:i] + "_" + suffix + path[i:]
		}
		return path + "_" + suffix
	}
	c.MetricsCSV = ins(c.MetricsCSV)
	c.HistogramCSV = ins(c.HistogramCSV)
	c.TraceJSON = ins(c.TraceJSON)
	c.ManifestJSON = ins(c.ManifestJSON)
	return c
}

// Collector wires the sampler, histograms, and trace builder into a
// machine's probe hooks.
type Collector struct {
	cfg     Config
	k       *kernel.Kernel
	sampler *Sampler
	hist    LatencyHistograms
	trace   *TraceBuilder
	meta    map[string]any
	started time.Time
}

// Interface checks: a Collector is both hooks.
var (
	_ cache.Observer = (*Collector)(nil)
	_ kernel.Probe   = (*Collector)(nil)
)

// New creates a collector from cfg. Call Attach before running the machine.
func New(cfg Config) *Collector {
	return &Collector{
		cfg:   cfg,
		trace: NewTraceBuilder(cfg.CyclesPerUs),
		meta:  map[string]any{},
	}
}

// Attach installs the collector's hooks on the machine and starts the wall
// clock. A collector observes exactly one machine.
func (c *Collector) Attach(k *kernel.Kernel) *Collector {
	c.k = k
	c.sampler = NewSampler(k, c.cfg.SampleEvery)
	k.SetProbe(c)
	k.Hierarchy().SetObserver(c)
	c.started = time.Now()
	return c
}

// SetMeta records a key in the manifest's meta section (workload names,
// seeds, tool flags).
func (c *Collector) SetMeta(key string, v any) { c.meta[key] = v }

// ObserveAccess implements cache.Observer: one callback per access, with
// the full request trail.
func (c *Collector) ObserveAccess(r *cache.Request) {
	res := r.Result()
	c.hist.Observe(r.Kind, res)
	if c.cfg.TraceAccesses {
		c.trace.Instant(Classify(res).String(), "access", r.Ctx, r.Now, map[string]any{
			"addr": fmt.Sprintf("%#x", r.Addr), "kind": r.Kind.String(),
			"latency": r.Latency, "level": r.Level,
		})
	}
}

// AfterStep implements kernel.Probe.
func (c *Collector) AfterStep(core int, now uint64) { c.sampler.AfterStep() }

// OnContextSwitch implements kernel.Probe: a "sched" span for the switch,
// with a nested "timecache" sub-span for the s-bit bookkeeping when the
// defense charged any.
func (c *Collector) OnContextSwitch(ev kernel.SwitchEvent) {
	name := fmt.Sprintf("switch %s→%s", orIdle(ev.OutName), orIdle(ev.InName))
	c.trace.Complete(name, "sched", ev.Core, ev.Start, ev.End, map[string]any{
		"out_pid": ev.OutPID, "in_pid": ev.InPID,
	})
	if ev.BookkeepEnd > ev.BookkeepStart {
		c.trace.Complete("s-bit save/restore", "timecache", ev.Core, ev.BookkeepStart, ev.BookkeepEnd, map[string]any{
			"cycles": ev.BookkeepEnd - ev.BookkeepStart,
		})
	}
}

func orIdle(name string) string {
	if name == "" {
		return "idle"
	}
	return name
}

// OnRunSpan implements kernel.Probe: one span per on-core occupancy.
func (c *Collector) OnRunSpan(core, pid int, name string, start, end uint64) {
	c.trace.Complete(name, "run", core, start, end, map[string]any{"pid": pid})
}

// Sampler returns the interval sampler (nil before Attach).
func (c *Collector) Sampler() *Sampler { return c.sampler }

// Histograms returns the latency histograms.
func (c *Collector) Histograms() *LatencyHistograms { return &c.hist }

// Trace returns the trace builder.
func (c *Collector) Trace() *TraceBuilder { return c.trace }

// Manifest builds the run manifest from the machine's current counters.
func (c *Collector) Manifest() Manifest {
	m := buildManifest(c.k)
	m.WallSeconds = time.Since(c.started).Seconds()
	m.Samples = len(c.sampler.Samples())
	m.TraceEvents = c.trace.Len()
	if len(c.meta) > 0 {
		m.Meta = c.meta
	}
	return m
}

// Finish flushes the sampler's trailing partial interval and writes every
// configured output file. It may be called once, after the run.
func (c *Collector) Finish() error {
	c.sampler.Flush()
	if c.cfg.MetricsCSV != "" {
		if err := writeFile(c.cfg.MetricsCSV, []byte(c.sampler.CSV())); err != nil {
			return fmt.Errorf("telemetry: metrics csv: %w", err)
		}
	}
	if c.cfg.HistogramCSV != "" {
		if err := writeFile(c.cfg.HistogramCSV, []byte(c.hist.Table().CSV())); err != nil {
			return fmt.Errorf("telemetry: histogram csv: %w", err)
		}
	}
	if c.cfg.TraceJSON != "" {
		b, err := c.trace.JSON(map[string]any{"cycles_per_us": c.trace.cyclesPerUs})
		if err != nil {
			return fmt.Errorf("telemetry: trace json: %w", err)
		}
		if err := writeFile(c.cfg.TraceJSON, b); err != nil {
			return fmt.Errorf("telemetry: trace json: %w", err)
		}
	}
	if c.cfg.ManifestJSON != "" {
		if err := c.Manifest().WriteJSON(c.cfg.ManifestJSON); err != nil {
			return fmt.Errorf("telemetry: manifest: %w", err)
		}
	}
	return nil
}
