// Package timecache is a from-scratch Go reproduction of "TimeCache: Using
// Time to Eliminate Cache Side Channels when Sharing Software" (Ojha &
// Dwarkadas, ISCA 2021).
//
// It bundles a cycle-level multi-core cache-hierarchy simulator, a small
// operating-system substrate (processes, virtual memory, a round-robin
// scheduler with TimeCache's context-switch s-bit bookkeeping, KSM-style
// page deduplication), a μRISC ISA with assembler and interpreter, the
// paper's attacks (flush+reload, evict+reload, flush+flush, prime+probe,
// LRU, coherence invalidate+transfer, evict+time), an RSA square-and-
// multiply victim, and calibrated SPEC2006/PARSEC workload models.
//
// The top-level API exposes three layers:
//
//   - System construction and program execution (New, (*System).LoadAsm,
//     (*System).SpawnSpec, (*System).Run) for building custom experiments.
//   - Attack scenarios (RunRSAAttack, RunMicrobenchmark, ...) matching the
//     paper's security evaluation.
//   - Experiment jobs (RunJob over a Job such as {Experiment: "table2"})
//     regenerating every table and figure as a Table, with PaperReference
//     supplying the paper's numbers to compare against.
package timecache

import (
	"context"

	"timecache/internal/asm"
	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/telemetry"
	"timecache/internal/vm"
	"timecache/internal/workload"
)

// checkDefense returns the registry kind a Defense field selects ("" is
// none), or an error naming the valid kinds.
func checkDefense(kind string) (string, error) {
	if kind == "" {
		return defense.None, nil
	}
	_, err := defense.StaticOf(kind)
	return kind, err
}

// Config describes a simulated machine. The zero value is completed with
// the paper's evaluation parameters (one 2 GHz core, 32 KB L1I/L1D, 2 MB
// LLC, 64 B lines, 32-bit timestamps).
type Config struct {
	// Defense selects the defense by registry kind: "none" (an undefended
	// hierarchy, also the empty string), "timecache" (the paper's
	// per-context s-bits), "ftm" (First Time Miss), "dawg-lite",
	// "flush-on-switch", "clepsydra" or "fase". New rejects any other kind
	// with an error naming the valid ones.
	Defense string
	// Cores is the number of cores (default 1).
	Cores int
	// L1Size and LLCSize are cache sizes in bytes (defaults 32 KB / 2 MB).
	L1Size, LLCSize int
	// TimestampBits is the Tc width (default 32).
	TimestampBits uint
	// GateLevel routes context-switch timestamp comparisons through the
	// gate-level transposed-SRAM comparator model.
	GateLevel bool
	// MaxSharers, when positive, uses the limited-pointer s-bit tracker
	// (the paper's §VI-C area optimization) instead of the full per-context
	// map: at most this many sharers are tracked per line; overflow evicts
	// a sharer, costing it an extra first-access miss but never weakening
	// the defense.
	MaxSharers int
	// ConstantTimeFlush makes clflush constant-time (the §VII-C
	// mitigation).
	ConstantTimeFlush bool
	// RandomizedIndex enables CEASER-lite LLC index randomization with the
	// given nonzero key.
	RandomizedIndex uint64
	// CoherenceCheck cross-checks the LLC sharer directory against a
	// brute-force probe of every L1 on every coherence event, panicking on
	// divergence (debug mode; costs O(cores) per access).
	CoherenceCheck bool
	// SliceCycles overrides the scheduler time slice (default 200k cycles).
	SliceCycles uint64
	// PhysFrames sizes physical memory (default 32768 frames = 128 MB).
	PhysFrames int
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.PhysFrames == 0 {
		c.PhysFrames = machine.DefaultPhysFrames
	}
	return c
}

// machineConfig maps the public Config onto the machine assembly config.
func (c Config) machineConfig() machine.Config {
	return machine.Config{
		Defense:           c.Defense,
		Cores:             c.Cores,
		L1Size:            c.L1Size,
		LLCSize:           c.LLCSize,
		TimestampBits:     c.TimestampBits,
		GateLevel:         c.GateLevel,
		MaxSharers:        c.MaxSharers,
		ConstantTimeFlush: c.ConstantTimeFlush,
		RandomizedIndex:   c.RandomizedIndex,
		CoherenceCheck:    c.CoherenceCheck,
		SliceCycles:       c.SliceCycles,
		PhysFrames:        c.PhysFrames,
	}
}

// System is a simulated machine: cores, caches, physical memory, and the
// kernel that schedules processes on it.
type System struct {
	cfg  Config
	m    *machine.Machine
	k    *kernel.Kernel
	pool *machine.Pool
}

// New builds a System from cfg. Assembly happens in internal/machine; this
// only translates the public Config.
func New(cfg Config) (*System, error) {
	return NewFromPool(nil, cfg)
}

// NewFromPool builds a System from cfg, checking a machine out of pool when
// one of the identical shape was released earlier (pool may be nil to always
// build fresh). A reused machine is Reset first and runs exactly like a new
// one; call Release when done with the System so the machine goes back for
// the next run. An unknown Defense kind is an error naming the valid kinds.
func NewFromPool(pool *machine.Pool, cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	var err error
	if cfg.Defense, err = checkDefense(cfg.Defense); err != nil {
		return nil, err
	}
	m := pool.Get(cfg.machineConfig())
	return &System{cfg: cfg, m: m, k: m.Kernel(), pool: pool}, nil
}

// Release returns the System's machine to the pool it was drawn from (a
// no-op for pool-less Systems). The System must not be used afterwards.
func (s *System) Release() { s.pool.Put(s.m) }

// Process is a handle on a spawned process.
type Process struct {
	p   *kernel.Process
	cpu *vm.CPU
}

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.p.State == kernel.Exited }

// ExitCode returns the SysExit argument (meaningful once Exited).
func (p *Process) ExitCode() uint64 { return p.p.ExitCode }

// Err returns the fault that killed the process, if any.
func (p *Process) Err() error {
	if p.p.Err != nil {
		return p.p.Err
	}
	if p.cpu != nil && p.cpu.Fault != nil {
		return p.cpu.Fault
	}
	return nil
}

// Output returns the values the program emitted with the print syscall
// (μRISC programs only).
func (p *Process) Output() []uint64 {
	if p.cpu == nil {
		return nil
	}
	return p.cpu.Output
}

// Stats returns the process's accounting counters.
func (p *Process) Stats() ProcessStats {
	return ProcessStats{
		Instructions:    p.p.Stats.Instructions,
		CPUCycles:       p.p.Stats.CPUCycles,
		FinishedAtCycle: p.p.Stats.FinishedAt,
		TimesScheduled:  p.p.Stats.Switches,
	}
}

// ProcessStats summarizes one process's execution.
type ProcessStats struct {
	Instructions    uint64
	CPUCycles       uint64
	FinishedAtCycle uint64
	TimesScheduled  uint64
}

// LoadOptions controls LoadAsm.
type LoadOptions struct {
	// Core pins the process (default 0).
	Core int
	// ShareKey makes the program's text and .shared segment shared
	// physical memory with every other program loaded under the same key.
	ShareKey string
	// Name labels the process in stats output.
	Name string
}

// LoadAsm assembles μRISC source and spawns it as a process.
func (s *System) LoadAsm(src string, opts LoadOptions) (*Process, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	p, cpu, err := s.k.Load(prog, kernel.LoadOptions{
		Core: opts.Core, ShareKey: opts.ShareKey, Name: opts.Name,
	})
	if err != nil {
		return nil, err
	}
	return &Process{p: p, cpu: cpu}, nil
}

// SpawnSpec starts an instance of a named SPEC2006 workload model (see
// SpecWorkloads) pinned to a core.
func (s *System) SpawnSpec(name string, core int, instrs uint64, seed uint64) (*Process, error) {
	prof, err := workload.Spec(name)
	if err != nil {
		return nil, err
	}
	p, _, err := workload.Spawn(s.k, prof, workload.SpawnOptions{
		Core: core, Instrs: instrs, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &Process{p: p}, nil
}

// AttachTelemetry installs a telemetry collector (interval sampler, latency
// histograms, Chrome-trace exporter, run manifest) on the machine. Attach
// before Run; call Finish on the returned collector after the run to write
// the configured outputs. See internal/telemetry for the Config fields.
func (s *System) AttachTelemetry(cfg telemetry.Config) *telemetry.Collector {
	return telemetry.New(cfg).Attach(s.k)
}

// Run advances the machine until every process exits or maxCycles elapses
// on some core, returning the final cycle count.
func (s *System) Run(maxCycles uint64) uint64 { return s.k.Run(maxCycles) }

// RunContext is Run bounded by a context: when ctx is cancelled the machine
// stops within a few thousand simulated instructions and RunContext returns
// the cycle count reached. Use ctx.Err() and AllExited to distinguish
// completion from cancellation; a cancelled System must not be run again.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) uint64 {
	return s.k.RunCtx(ctx, maxCycles)
}

// AllExited reports whether every spawned process has terminated.
func (s *System) AllExited() bool { return s.k.AllExited() }

// DedupScan performs one KSM-style same-page-merging pass over all
// processes' private pages and returns the number of pages merged.
func (s *System) DedupScan() int { return s.k.DedupScan() }

// CacheStats summarizes one cache's counters.
type CacheStats struct {
	Name        string
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	FirstAccess uint64
	Evictions   uint64
	Writebacks  uint64
	Invalidates uint64
}

// Stats summarizes the machine after (or during) a run.
type Stats struct {
	Caches            []CacheStats
	ContextSwitches   uint64
	BookkeepingCycles uint64
	Syscalls          uint64
	COWBreaks         uint64
	DedupMergedPages  uint64
	MaxCycle          uint64
}

// Stats snapshots the machine counters.
func (s *System) Stats() Stats {
	out := Stats{
		ContextSwitches:   s.k.Stats.ContextSwitches,
		BookkeepingCycles: s.k.Stats.BookkeepingCycles,
		Syscalls:          s.k.Stats.Syscalls,
		COWBreaks:         s.k.Stats.COWBreaks,
		DedupMergedPages:  s.k.Stats.DedupMerged,
	}
	for _, c := range s.k.Hierarchy().Caches() {
		out.Caches = append(out.Caches, CacheStats{
			Name:        c.Name(),
			Accesses:    c.Stats.Accesses,
			Hits:        c.Stats.Hits,
			Misses:      c.Stats.Misses,
			FirstAccess: c.Stats.FirstAccess,
			Evictions:   c.Stats.Evictions,
			Writebacks:  c.Stats.Writebacks,
			Invalidates: c.Stats.Invalidates,
		})
	}
	for c := 0; c < s.cfg.Cores; c++ {
		if t := s.k.CoreClock(c); t > out.MaxCycle {
			out.MaxCycle = t
		}
	}
	return out
}
