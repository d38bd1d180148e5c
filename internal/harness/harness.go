// Package harness runs the paper's experiments end to end: it builds paired
// (baseline, TimeCache) machines, executes the calibrated workloads, and
// reduces the counters to the quantities each table and figure reports.
package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"timecache/internal/cache"
	"timecache/internal/core"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/stats"
	"timecache/internal/telemetry"
	"timecache/internal/workload"
)

// Options controls experiment scale and fidelity.
type Options struct {
	// InstrsPerProc is the per-process measured instruction budget (the
	// paper runs 1B instructions in gem5; the default here is sized for
	// seconds-scale runs — raise it for tighter statistics).
	InstrsPerProc uint64
	// WarmupInstrs run before measurement starts so cold-start misses do
	// not pollute steady-state MPKI and timing (the paper's 1B-instruction
	// runs amortize them; short runs must exclude them explicitly).
	WarmupInstrs uint64
	// LLCSize overrides the last-level cache size (Fig. 10 sweeps it).
	LLCSize int
	// GateLevel routes context-switch comparisons through the gate-level
	// bit-serial model.
	GateLevel bool
	// SliceCycles overrides the scheduler time slice.
	SliceCycles uint64
	// CoherenceCheck cross-checks the LLC sharer directory against a
	// brute-force probe of every L1 on every coherence event (debug mode;
	// slows runs by O(cores) per access).
	CoherenceCheck bool
	// Telemetry, when non-nil, attaches a telemetry collector to every run;
	// configured output paths are suffixed with the workload label and mode
	// so one config fans out over a whole sweep.
	Telemetry *telemetry.Config
	// Jobs is the number of legs RunJob keeps in flight (see JobLegs, e.g.
	// the number of sizes of an llc-sweep). Each worker draws machines from
	// its own pool, so results are bit-identical to sequential execution;
	// see internal/runner. Zero or negative selects runtime.GOMAXPROCS(0);
	// 1 runs one leg at a time. Jobs does not bound machine runs: every leg
	// runs its independent runs concurrently, and at most GOMAXPROCS runs
	// simulate at once in the process whatever Jobs says. RunJobLeg runs
	// one leg and ignores it.
	Jobs int
	// Progress, when non-nil, is called by RunJob after each completed leg
	// with (done, total). Calls are serialized. RunJobLeg ignores it.
	Progress func(done, total int)
	// Ctx, when non-nil, bounds every run: cancellation stops the simulated
	// machine within a few thousand instructions and surfaces as Ctx.Err()
	// from RunJob. Nil means never cancelled.
	Ctx context.Context
	// Pool, when non-nil, supplies (and receives back) the machines for
	// every run instead of per-worker private pools. machine.Pool is safe
	// for concurrent use, so one pool may serve a whole sweep — the job
	// service shares one pool per service worker across all its jobs.
	Pool *machine.Pool
	// Spans, when non-nil, receives one wall-clock span per simulated
	// machine run (experiment leg), named "<label>/<mode>" with the run's
	// simulated cycles and instructions as args. The job service passes the
	// job's SpanRecorder here. Nil costs the run one comparison.
	Spans telemetry.SpanSink
	// Now supplies the wall timestamps for Spans. Nil means time.Now; the
	// job service injects its wall clock so traces are deterministic in
	// tests.
	Now func() time.Time
	// Account, when non-nil, accumulates the resource counters of every
	// completed run (simulated cycles, instructions, per-level accesses,
	// context switches, s-bit delayed loads). Adds are atomic, so one
	// account serves a parallel sweep. Nil costs the run one comparison.
	Account *ResourceAccount
	// Snapshot selects whether legs may reuse warm machine state through
	// the pool's snapshot shelf (see SnapshotMode). Results are identical
	// in every mode — the golden forced-on/off tests and SnapshotCheck
	// enforce it — only the work to produce them changes. The zero value
	// is SnapshotAuto.
	Snapshot SnapshotMode
	// SnapshotCheck cross-runs every snapshot-forked leg from cold and
	// errors on any counter divergence, in the spirit of CoherenceCheck: a
	// debug mode that fails loudly instead of changing results. It forces
	// Snapshot on (except under SnapshotOff) so the fork path is actually
	// exercised.
	SnapshotCheck bool
	// Memo, when non-nil, lets the legs of one job share machine runs: a
	// run with the same machine Config, spawn recipe and instruction
	// budgets as one the job already completed takes that run's
	// measurement instead of simulating again (see RunMemo). RunJob
	// supplies a fresh memo when it is nil; RunJobLeg uses it as given.
	Memo *RunMemo
}

// SnapshotMode controls warm-state snapshot/fork reuse across legs.
type SnapshotMode int

const (
	// SnapshotAuto (the default) shelves a snapshot at each leg's warm
	// point and forks any later leg whose warmup prefix — machine Config,
	// workload spawn recipe, and instruction budgets — matches a shelved
	// key. Legs with no match run exactly as before (the snapshot capture
	// is a pure bystander: the run continues in place). Repeated
	// same-shape legs — job-service jobs sharing legs, repeated pairs —
	// skip their warmup entirely.
	SnapshotAuto SnapshotMode = iota
	// SnapshotOn additionally measures the first leg of each shape on a
	// fork of its own warm snapshot (instead of continuing in place), so
	// every measured leg exercises the fork path. Used by the golden
	// equality tests and -snapshot-check.
	SnapshotOn
	// SnapshotOff disables snapshotting entirely: every leg runs cold.
	SnapshotOff
)

// ctx returns the configured context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// newPool returns the machine pool for one sweep worker: the shared
// Options.Pool when set, otherwise a fresh private pool.
func (o Options) newPool() *machine.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return machine.NewPool()
}

// attachTelemetry attaches a collector for a run labeled label/leg (leg is
// the paired row's display name, "baseline" or "timecache"), or returns nil
// when telemetry is off.
func (o Options) attachTelemetry(k *kernel.Kernel, label, leg string) *telemetry.Collector {
	if o.Telemetry == nil {
		return nil
	}
	cfg := o.Telemetry.WithSuffix(sanitizeLabel(label) + "_" + leg)
	col := telemetry.New(cfg).Attach(k)
	col.SetMeta("workload", label)
	col.SetMeta("mode", leg)
	return col
}

// finishTelemetry writes a run's telemetry outputs (nil-safe).
func finishTelemetry(col *telemetry.Collector) error {
	if col == nil {
		return nil
	}
	return col.Finish()
}

// wallNow reads the injected wall clock (time.Now when unset).
func (o Options) wallNow() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// legStart stamps the beginning of one machine run when spans are on. The
// zero time when Spans is nil keeps the disabled path off the clock.
func (o Options) legStart() time.Time {
	if o.Spans == nil {
		return time.Time{}
	}
	return o.wallNow()
}

// finishLeg accounts one completed machine run and records its span. Both
// hooks are leg-granularity: nothing here runs on the per-access or
// per-instruction hot paths, so an attached account or sink costs one
// counter snapshot per leg and a disabled one costs two nil checks. A nil
// kernel marks an attack scenario that owns its machines internally: it is
// accounted by count and span only.
func (o Options) finishLeg(name string, start time.Time, k *kernel.Kernel) {
	if o.Account == nil && o.Spans == nil {
		return
	}
	var args map[string]any
	if k == nil {
		o.Account.AddLeg()
	} else {
		m := snapCounters(k)
		o.Account.add(m)
		args = map[string]any{"sim_cycles": m.cycles, "instructions": m.instrs}
	}
	if o.Spans != nil {
		o.Spans.Span(name, "leg", start, o.wallNow(), args)
	}
}

// sanitizeLabel makes a workload label safe as a filename fragment.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ', ':':
			return '-'
		}
		return r
	}, label)
}

// Defaults fills unset options.
func (o Options) withDefaults() Options {
	if o.InstrsPerProc == 0 {
		o.InstrsPerProc = 300_000
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = 250_000
	}
	if o.LLCSize == 0 {
		o.LLCSize = 2 << 20
	}
	return o
}

// measurement is a counter snapshot delta between the warm point (when the
// last process crosses its warmup budget) and the end of the run. It keeps
// whole Stats structs per level; derived quantities (LLC MPKI inputs,
// per-level first accesses) are read off the structs in result().
type measurement struct {
	cycles uint64
	instrs uint64
	l1i    cache.Stats // aggregated across cores
	l1d    cache.Stats
	llc    cache.Stats
	kern   kernel.Stats
}

// snapCounters captures the counters measurement subtracts.
func snapCounters(k *kernel.Kernel) measurement {
	h := k.Hierarchy()
	m := measurement{
		cycles: maxClock(k),
		instrs: totalInstructions(k),
		llc:    h.LLC().Stats,
		kern:   k.Stats,
	}
	for c := 0; c < h.Config().Cores; c++ {
		m.l1i = m.l1i.Add(h.L1I(c).Stats)
		m.l1d = m.l1d.Add(h.L1D(c).Stats)
	}
	return m
}

func (m measurement) sub(start measurement) measurement {
	return measurement{
		cycles: m.cycles - start.cycles,
		instrs: m.instrs - start.instrs,
		l1i:    m.l1i.Delta(start.l1i),
		l1d:    m.l1d.Delta(start.l1d),
		llc:    m.llc.Delta(start.llc),
		kern:   m.kern.Delta(start.kern),
	}
}

// levelMPKI holds per-cache-level first-access (delayed access) MPKI, the
// quantity of Figures 8 and 9b.
type levelMPKI struct {
	L1I, L1D, LLC float64
}

// pairResult is one workload row across both configurations.
type pairResult struct {
	Label string

	BaselineCycles  uint64
	TimeCacheCycles uint64
	// Normalized is TimeCacheCycles/BaselineCycles (Fig. 7 / 9a / 10).
	Normalized float64

	// MPKIBase and MPKITC are LLC misses (including first-access misses)
	// per kilo-instruction, Table II's last two columns.
	MPKIBase, MPKITC float64

	// FirstAccess is the delayed-access MPKI per level under TimeCache
	// (Fig. 8 / 9b).
	FirstAccess levelMPKI

	// BookkeepingPct is the share of total TimeCache cycles spent on s-bit
	// save/restore (the paper reports ~0.02%).
	BookkeepingPct float64
	// ContextSwitches under the TimeCache run.
	ContextSwitches uint64
}

// machineConfig derives the machine assembly config for an experiment leg
// under the defense registry kind.
func machineConfig(kind string, cores int, opts Options, frames int) machine.Config {
	return machine.Config{
		Defense:        kind,
		Cores:          cores,
		LLCSize:        opts.LLCSize,
		GateLevel:      opts.GateLevel,
		CoherenceCheck: opts.CoherenceCheck,
		SliceCycles:    opts.SliceCycles,
		PhysFrames:     frameBudget(frames),
	}
}

// frameBudget rounds a frame requirement up to an 8192-frame (32 MB)
// bucket. Physical capacity only gates out-of-memory — it never changes
// timing — so coarse buckets let workloads with similar footprints share
// one pooled machine shape instead of splitting the pool per exact size.
func frameBudget(frames int) int {
	const bucket = 8192
	return (frames + bucket - 1) / bucket * bucket
}

// snapKey identifies a shared warmup prefix on the pool's snapshot shelf.
// Two legs share warm state exactly when the full machine Config, the
// workload spawn recipe (kind + profile names + seeds are fixed per kind),
// and the instruction budgets all match — defense kind, LLC size and slice
// length are all part of machine.Config, so distinct sweep legs can never
// alias. The same identity keys a job's RunMemo: a run's measurement is a
// function of its warmup prefix and the rest of its budget.
type snapKey struct {
	cfg    machine.Config
	kind   string // "spec" (two processes, one core) or "parsec" (2 threads, 2 cores)
	a, b   string
	warmup uint64
	total  uint64
}

// machineRun describes one machine run: how to build its machine, how to
// populate it, and how to label its outputs. runMachine executes it cold,
// from a snapshot fork, or cold-with-capture depending on Options.Snapshot.
type machineRun struct {
	label string         // span name and error-message subject, e.g. "2Xlbm/timecache"
	mcfg  machine.Config // machine shape (includes defense kind and overrides)
	key   snapKey        // warmup-prefix identity on the snapshot shelf
	// attach, when non-nil, attaches telemetry to the kernel (cold path
	// only; telemetry disables snapshotting).
	attach func(*kernel.Kernel) *telemetry.Collector
	// spawn installs the run's processes with their warmup set and OnWarm
	// wired to onWarm, returning how many processes must warm before the
	// measurement window starts.
	spawn func(k *kernel.Kernel, onWarm func()) (int, error)
}

// runMachine executes one run and returns its steady-state measurement. A
// run the job's memo (opts.Memo) already holds is not simulated again;
// otherwise it routes through the snapshot shelf per opts.Snapshot.
// Telemetry runs bypass the memo and always take the cold path: a collector
// observes the whole run, warmup included, so a forked or memoized run
// would change its outputs. A simulation holds a run slot from before it
// takes a machine from the pool until it ends; waiting on the memo holds
// none.
func runMachine(pool *machine.Pool, opts Options, l machineRun) (measurement, error) {
	shelf := func() (measurement, error) {
		return withSlot(opts, func() (measurement, error) { return runShelf(pool, opts, l) })
	}
	if opts.Memo == nil || opts.Telemetry != nil {
		return shelf()
	}
	return opts.Memo.run(opts, l, shelf, func() (measurement, error) {
		return withSlot(opts, func() (measurement, error) { return runQuietCold(pool, opts, l) })
	})
}

// runShelf executes one run cold, from a snapshot fork, or cold-with-capture
// depending on opts.Snapshot.
func runShelf(pool *machine.Pool, opts Options, l machineRun) (measurement, error) {
	mode := opts.Snapshot
	if opts.SnapshotCheck && mode != SnapshotOff {
		mode = SnapshotOn
	}
	if opts.Telemetry != nil {
		mode = SnapshotOff
	}
	if mode == SnapshotOff {
		return runCold(pool, opts, l)
	}
	if s := pool.Snapshot(l.key); s != nil {
		return runFork(pool, opts, l, s)
	}
	return runCapture(pool, opts, l, mode)
}

// runCold is the pre-snapshot behavior: pooled machine, full run, warm
// subtraction.
func runCold(pool *machine.Pool, opts Options, l machineRun) (measurement, error) {
	legStart := opts.legStart()
	m := pool.Get(l.mcfg)
	defer pool.Put(m)
	k := m.Kernel()
	var warm measurement
	warmed, targets := 0, -1
	onWarm := func() {
		warmed++
		if warmed == targets {
			warm = snapCounters(k)
		}
	}
	n, err := l.spawn(k, onWarm)
	if err != nil {
		return measurement{}, err
	}
	targets = n
	var col *telemetry.Collector
	if l.attach != nil {
		col = l.attach(k)
	}
	k.RunCtx(opts.ctx(), 1<<62)
	if err := opts.ctx().Err(); err != nil {
		return measurement{}, err
	}
	if !k.AllExited() {
		return measurement{}, fmt.Errorf("harness: %s did not finish", l.label)
	}
	if warmed != targets {
		return measurement{}, fmt.Errorf("harness: %s never reached steady state", l.label)
	}
	if err := finishTelemetry(col); err != nil {
		return measurement{}, err
	}
	opts.finishLeg(l.label, legStart, k)
	return snapCounters(k).sub(warm), nil
}

// runCapture is the shelf-miss path: run from cold, pause at the warm
// point (Interrupt stops Run between scheduler steps within a poll stride),
// shelve a snapshot for later same-key legs, then either resume in place
// (SnapshotAuto — the pause and capture are invisible to the simulation) or
// measure on a fork of the snapshot just taken (SnapshotOn).
func runCapture(pool *machine.Pool, opts Options, l machineRun, mode SnapshotMode) (measurement, error) {
	legStart := opts.legStart()
	m := pool.Get(l.mcfg)
	defer pool.Put(m)
	k := m.Kernel()
	var warm measurement
	warmed, targets := 0, -1
	onWarm := func() {
		warmed++
		if warmed == targets {
			warm = snapCounters(k)
			k.Interrupt()
		}
	}
	n, err := l.spawn(k, onWarm)
	if err != nil {
		return measurement{}, err
	}
	targets = n
	k.RunCtx(opts.ctx(), 1<<62)
	if err := opts.ctx().Err(); err != nil {
		return measurement{}, err
	}
	var snap *machine.Snapshot
	if warmed == targets && !k.AllExited() {
		// A process that cannot be snapshotted (no sim.Forker) just skips
		// the shelf; the leg still measures normally.
		if s, err := m.Snapshot(); err == nil {
			s.Tag = warm
			pool.PutSnapshot(l.key, s)
			snap = s
		}
	}
	k.ClearInterrupt()
	if mode == SnapshotOn && snap != nil {
		// The warm machine goes back to the pool mid-run (the deferred
		// Put; forking resets nothing it does not overwrite) and the
		// measurement happens on a fork, exercising the exact path a
		// shelf hit takes.
		return runFork(pool, opts, l, snap)
	}
	k.RunCtx(opts.ctx(), 1<<62)
	if err := opts.ctx().Err(); err != nil {
		return measurement{}, err
	}
	if !k.AllExited() {
		return measurement{}, fmt.Errorf("harness: %s did not finish", l.label)
	}
	if warmed != targets {
		return measurement{}, fmt.Errorf("harness: %s never reached steady state", l.label)
	}
	opts.finishLeg(l.label, legStart, k)
	return snapCounters(k).sub(warm), nil
}

// runFork is the shelf-hit path: fork the snapshot into a pooled machine
// and run only the measured remainder. Under SnapshotCheck the same leg is
// re-run cold and the two measurements must agree exactly.
func runFork(pool *machine.Pool, opts Options, l machineRun, s *machine.Snapshot) (measurement, error) {
	warm, ok := s.Tag.(measurement)
	if !ok {
		return measurement{}, fmt.Errorf("harness: snapshot for %s carries no warm measurement", l.label)
	}
	legStart := opts.legStart()
	m := pool.Fork(s)
	defer pool.Put(m)
	k := m.Kernel()
	k.RunCtx(opts.ctx(), 1<<62)
	if err := opts.ctx().Err(); err != nil {
		return measurement{}, err
	}
	if !k.AllExited() {
		return measurement{}, fmt.Errorf("harness: %s did not finish", l.label)
	}
	opts.finishLeg(l.label, legStart, k)
	got := snapCounters(k).sub(warm)
	if opts.SnapshotCheck {
		ref, err := runQuietCold(pool, opts, l)
		if err != nil {
			return measurement{}, fmt.Errorf("harness: snapshot-check cold rerun of %s: %w", l.label, err)
		}
		if ref != got {
			return measurement{}, fmt.Errorf("harness: snapshot-check divergence on %s: forked %+v != cold %+v", l.label, got, ref)
		}
	}
	return got, nil
}

// runQuietCold re-runs l from cold with no account, span or telemetry: the
// SnapshotCheck reference that a fork or a memo hit must match.
func runQuietCold(pool *machine.Pool, opts Options, l machineRun) (measurement, error) {
	opts.Snapshot = SnapshotOff
	opts.SnapshotCheck = false
	opts.Telemetry = nil
	opts.Spans = nil
	opts.Account = nil
	return runCold(pool, opts, l)
}

// runSpec runs one Fig. 7 workload (two processes, one core) on a machine
// from pool (nil builds fresh) configured for the defense registry kind,
// and returns its steady-state measurement. labelSuffix names the run's
// span/error label ("<pair>/<suffix>"): the row name of the paired,
// ablation and matrix runs.
func runSpec(pool *machine.Pool, pair workload.Pair, kind, labelSuffix string, opts Options,
	attach func(*kernel.Kernel) *telemetry.Collector) (measurement, error) {
	pa, err := workload.Spec(pair.A)
	if err != nil {
		return measurement{}, err
	}
	pb, err := workload.Spec(pair.B)
	if err != nil {
		return measurement{}, err
	}
	mcfg := machineConfig(kind, 1, opts, workload.FramesNeeded(pa)+workload.FramesNeeded(pb)+1024)
	total := opts.WarmupInstrs + opts.InstrsPerProc
	return runMachine(pool, opts, machineRun{
		label:  pair.Label + "/" + labelSuffix,
		mcfg:   mcfg,
		key:    snapKey{cfg: mcfg, kind: "spec", a: pair.A, b: pair.B, warmup: opts.WarmupInstrs, total: total},
		attach: attach,
		spawn: func(k *kernel.Kernel, onWarm func()) (int, error) {
			_, procA, err := workload.Spawn(k, pa, workload.SpawnOptions{Instrs: total, Seed: 1001})
			if err != nil {
				return 0, err
			}
			_, procB, err := workload.Spawn(k, pb, workload.SpawnOptions{Instrs: total, Seed: 2002})
			if err != nil {
				return 0, err
			}
			procA.Warmup, procA.OnWarm = opts.WarmupInstrs, onWarm
			procB.Warmup, procB.OnWarm = opts.WarmupInstrs, onWarm
			return 2, nil
		},
	})
}

func totalInstructions(k *kernel.Kernel) uint64 {
	var n uint64
	for _, p := range k.Processes() {
		n += p.Stats.Instructions
	}
	return n
}

func maxClock(k *kernel.Kernel) uint64 {
	var m uint64
	for c := 0; c < k.Hierarchy().Config().Cores; c++ {
		if t := k.CoreClock(c); t > m {
			m = t
		}
	}
	return m
}

// result reduces two steady-state measurements to a pairResult.
func result(label string, mb, mt measurement) pairResult {
	res := pairResult{
		Label:           label,
		BaselineCycles:  mb.cycles,
		TimeCacheCycles: mt.cycles,
		MPKIBase:        stats.MPKI(mb.llc.Misses+mb.llc.FirstAccess, mb.instrs),
		MPKITC:          stats.MPKI(mt.llc.Misses+mt.llc.FirstAccess, mt.instrs),
		FirstAccess: levelMPKI{
			L1I: stats.MPKI(mt.l1i.FirstAccess, mt.instrs),
			L1D: stats.MPKI(mt.l1d.FirstAccess, mt.instrs),
			LLC: stats.MPKI(mt.llc.FirstAccess, mt.instrs),
		},
		ContextSwitches: mt.kern.ContextSwitches,
	}
	res.Normalized = stats.Normalized(res.TimeCacheCycles, res.BaselineCycles)
	if res.TimeCacheCycles > 0 {
		res.BookkeepingPct = float64(mt.kern.BookkeepingCycles) / float64(res.TimeCacheCycles) * 100
	}
	return res
}

// pairedLegs are a paired row's two legs, under the display names its
// spans, telemetry suffixes and the security table have always used.
var pairedLegs = [2]ablationConfig{{"baseline", defense.None}, {"timecache", defense.TimeCache}}

// runPaired measures one row: a workload under the baseline and under
// TimeCache, the two runs concurrently.
func runPaired(label string, opts Options, once func(Options, ablationConfig) (measurement, error)) (pairResult, error) {
	m, err := eachRun(opts, len(pairedLegs), func(o Options, i int) (measurement, error) { return once(o, pairedLegs[i]) })
	if err != nil {
		return pairResult{}, err
	}
	return result(label, m[0], m[1]), nil
}

// runSpecPair measures one Fig. 7 / Table II row on machines drawn from pool
// (nil builds fresh; a shared pool also enables warm-snapshot reuse across
// calls).
func runSpecPair(pool *machine.Pool, pair workload.Pair, opts Options) (pairResult, error) {
	opts = opts.withDefaults()
	return runPaired(pair.Label, opts, func(o Options, leg ablationConfig) (measurement, error) {
		return runSpec(pool, pair, leg.kind, leg.name, o,
			func(k *kernel.Kernel) *telemetry.Collector { return o.attachTelemetry(k, pair.Label, leg.name) })
	})
}

// runParsecOnce runs one 2-thread/2-core PARSEC workload on a machine from
// pool (nil builds fresh).
func runParsecOnce(pool *machine.Pool, name string, leg ablationConfig, opts Options) (measurement, error) {
	prof, err := workload.Parsec(name)
	if err != nil {
		return measurement{}, err
	}
	frames := workload.FramesNeeded(prof) + 1024
	mcfg := machineConfig(leg.kind, 2, opts, frames)
	total := opts.WarmupInstrs + opts.InstrsPerProc
	l := machineRun{
		label: name + "/" + leg.name,
		mcfg:  mcfg,
		key:   snapKey{cfg: mcfg, kind: "parsec", a: name, warmup: opts.WarmupInstrs, total: total},
		attach: func(k *kernel.Kernel) *telemetry.Collector {
			return opts.attachTelemetry(k, name, leg.name)
		},
		spawn: func(k *kernel.Kernel, onWarm func()) (int, error) {
			as, err := workload.BuildSharedAS(k, prof)
			if err != nil {
				return 0, err
			}
			for t := 0; t < 2; t++ {
				proc := workload.NewProc(prof, total, uint64(3000+t*17))
				proc.Warmup, proc.OnWarm = opts.WarmupInstrs, onWarm
				if _, err := k.Spawn(fmt.Sprintf("%s.t%d", name, t), proc, as, t); err != nil {
					return 0, err
				}
			}
			return 2, nil
		},
	}
	return runMachine(pool, opts, l)
}

// runParsec measures one Fig. 9 row on machines drawn from pool.
func runParsec(pool *machine.Pool, name string, opts Options) (pairResult, error) {
	opts = opts.withDefaults()
	return runPaired(name, opts, func(o Options, leg ablationConfig) (measurement, error) {
		return runParsecOnce(pool, name, leg, o)
	})
}

// ablationConfig names one ablation row: the registry kind that configures
// the machine and the row's display name.
type ablationConfig struct {
	name string
	kind string
}

// ablationConfigs enumerates the defense registry in canonical order under
// the ablation's historical row names ("baseline" for none, "partitioned"
// for dawg-lite; the rest display their registry kind).
func ablationConfigs() []ablationConfig {
	out := make([]ablationConfig, 0, len(defense.Kinds()))
	for _, kind := range defense.Kinds() {
		name := kind
		switch kind {
		case defense.None:
			name = "baseline"
		case defense.DAWGLite:
			name = "partitioned"
		}
		out = append(out, ablationConfig{name: name, kind: kind})
	}
	return out
}

// runDefense runs one spec pair on a single core under a defense registry
// kind and returns its measured cycles. The ablation and the matrix's
// slowdown columns both normalize these against the "none" kind.
func runDefense(pool *machine.Pool, pair workload.Pair, kind, label string, opts Options) (uint64, error) {
	m, err := runSpec(pool, pair, kind, label, opts, nil)
	return m.cycles, err
}

// SbitCostBreakdown quantifies §VI-D: how many transfers one switch needs
// per cache and the cycles charged per switch by each cost model.
type SbitCostBreakdown struct {
	L1Transfers, LLCTransfers int
	DMACyclesPerSwitch        uint64
	CopyCyclesPerSwitch       uint64
}

// SbitCost computes the §VI-D bookkeeping costs for the configured caches.
func SbitCost(opts Options) SbitCostBreakdown {
	opts = opts.withDefaults()
	l1Lines := (32 << 10) / cache.LineSize
	llcLines := opts.LLCSize / cache.LineSize
	dma := core.DefaultCostModel()
	copyModel := core.CostModel{TransferCycles: 200} // one 64B DRAM transfer
	return SbitCostBreakdown{
		L1Transfers:         core.SbitTransfers(l1Lines),
		LLCTransfers:        core.SbitTransfers(llcLines),
		DMACyclesPerSwitch:  dma.SwitchCost([]int{l1Lines, l1Lines, llcLines}),
		CopyCyclesPerSwitch: copyModel.SwitchCost([]int{l1Lines, l1Lines, llcLines}),
	}
}
