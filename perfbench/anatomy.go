package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"timecache/internal/cache"
	"timecache/internal/core"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/sim"
	"timecache/internal/trace"
	"timecache/internal/workload"
)

// The leg anatomy rebuilds one spec-pairs leg from the layer constructors
// (machine.New, workload.Spawn, kernel.RunCtx), checks that its counters
// equal the leg the harness ran, and times each layer the per-instruction
// path crosses on its own: the workload model's Step, the kernel's address
// translation, and a hierarchy access. The reconcile row is what the
// layers' unit costs leave unexplained of the kernel's time per
// instruction.

// specBudget mirrors goldenOpts: warmup and total instructions per process.
const (
	specWarmup = 40_000
	specTotal  = 100_000
	// specSeedA and specSeedB are the harness's fixed seeds for a pair's two
	// processes; the counter check fails if the harness stops using them.
	specSeedA = 1001
	specSeedB = 2002
	// frameBucket is the harness's physical-memory rounding.
	frameBucket = 8192
	// anatomyReps is how many times each timed layer is measured; the
	// median is reported.
	anatomyReps = 5
)

// specLegConfig is the machine the harness assembles for a spec pair's leg:
// Table II legs set the legacy mode and its defense kind, matrix and
// ablation legs cache.SecOff and the row's defense kind.
func specLegConfig(pair workload.Pair, mode cache.SecMode, def string) (machine.Config, error) {
	pa, err := workload.Spec(pair.A)
	if err != nil {
		return machine.Config{}, err
	}
	pb, err := workload.Spec(pair.B)
	if err != nil {
		return machine.Config{}, err
	}
	frames := workload.FramesNeeded(pa) + workload.FramesNeeded(pb) + 1024
	frames = (frames + frameBucket - 1) / frameBucket * frameBucket
	return machine.Config{Mode: mode, Defense: def, Cores: 1, LLCSize: 2 << 20, PhysFrames: frames}, nil
}

func pairByLabel(label string) (workload.Pair, error) {
	for _, p := range workload.SpecPairs() {
		if p.Label == label {
			return p, nil
		}
	}
	return workload.Pair{}, fmt.Errorf("unknown pair %q", label)
}

// spawnPair installs the pair's two processes on m. onWarm, when non-nil,
// fires once both have retired their warmup.
func spawnPair(m *machine.Machine, pair workload.Pair, onWarm func()) ([]*kernel.Process, error) {
	var kps []*kernel.Process
	warmed := 0
	for i, name := range []string{pair.A, pair.B} {
		prof, err := workload.Spec(name)
		if err != nil {
			return nil, err
		}
		seed := uint64(specSeedA)
		if i == 1 {
			seed = specSeedB
		}
		kp, wp, err := workload.Spawn(m.Kernel(), prof, workload.SpawnOptions{Instrs: specTotal, Seed: seed})
		if err != nil {
			return nil, err
		}
		wp.Warmup = specWarmup
		wp.OnWarm = func() {
			warmed++
			if warmed == 2 && onWarm != nil {
				onWarm()
			}
		}
		kps = append(kps, kp)
	}
	return kps, nil
}

// legCounters is what the harness's resource account records for one leg.
func legCounters(k *kernel.Kernel) harness.Resources {
	h := k.Hierarchy()
	r := harness.Resources{Legs: 1, ContextSwitches: k.Stats.ContextSwitches}
	for _, p := range k.Processes() {
		r.Instructions += p.Stats.Instructions
	}
	for c := 0; c < h.Config().Cores; c++ {
		if t := k.CoreClock(c); t > r.SimCycles {
			r.SimCycles = t
		}
		r.L1IAccesses += h.L1I(c).Stats.Accesses
		r.L1DAccesses += h.L1D(c).Stats.Accesses
		r.SBitDelayedLoads += h.L1I(c).Stats.FirstAccess + h.L1D(c).Stats.FirstAccess
	}
	r.LLCAccesses = h.LLC().Stats.Accesses
	r.SBitDelayedLoads += h.LLC().Stats.FirstAccess
	return r
}

// runLeg builds a machine, spawns the pair and runs it to completion,
// returning the machine, the wall time and allocations of RunCtx alone.
func runLeg(cfg machine.Config, pair workload.Pair) (*machine.Machine, time.Duration, uint64, error) {
	m := machine.New(cfg)
	if _, err := spawnPair(m, pair, nil); err != nil {
		return nil, 0, 0, err
	}
	m0, _, _ := memNow()
	t0 := time.Now()
	m.Kernel().RunCtx(context.Background(), 1<<62)
	d := time.Since(t0)
	m1, _, _ := memNow()
	if !m.Kernel().AllExited() {
		return nil, 0, 0, fmt.Errorf("rebuilt leg %s did not finish", pair.Label)
	}
	return m, d, m1 - m0, nil
}

// legAnatomy fills the kernel.*, workload.*, cache.*, core.* and
// reconcile.* metrics from the timecache leg of pairLabel. The returned
// round carries the counter check as one attempted operation.
func legAnatomy(pairLabel string, vals map[string]float64) (round, error) {
	rd := round{attempted: 1}
	pair, err := pairByLabel(pairLabel)
	if err != nil {
		return rd, err
	}

	// The harness's own run of the pair: both legs' counters from the
	// resource account, the timecache leg's from its span.
	spans := &legSpans{}
	acc := &harness.ResourceAccount{}
	opts := goldenOpts()
	opts.Spans, opts.Account = spans, acc
	if _, err := harness.RunJob(harness.Job{Experiment: harness.ExpTableII, Pairs: []string{pair.Label}}, opts); err != nil {
		return rd, err
	}
	tcSpan, ok := spans.find(pair.Label + "/timecache")
	if !ok {
		return rd, fmt.Errorf("harness recorded no %s/timecache leg span", pair.Label)
	}

	var got harness.Resources
	var tc harness.Resources
	var tcCfg machine.Config
	var nsPerInstr, allocsPerInstr []float64
	for _, mode := range tableIIModes {
		cfg, err := specLegConfig(pair, mode, defense.KindOfMode(mode))
		if err != nil {
			return rd, err
		}
		for rep := 0; rep < anatomyReps; rep++ {
			m, d, allocs, err := runLeg(cfg, pair)
			if err != nil {
				return rd, err
			}
			c := legCounters(m.Kernel())
			if rep == 0 {
				got = got.Add(c)
			}
			if mode == cache.SecTimeCache {
				tc, tcCfg = c, cfg
				nsPerInstr = append(nsPerInstr, float64(d.Nanoseconds())/float64(c.Instructions))
				allocsPerInstr = append(allocsPerInstr, float64(allocs)/float64(c.Instructions))
			}
		}
	}
	want := acc.Snapshot()
	if got != want || tc.SimCycles != tcSpan.simCycles || tc.Instructions != tcSpan.instructions {
		fmt.Fprintf(os.Stderr, "perfbench: rebuilt %s legs differ from the harness's:\n  rebuilt: %+v (timecache leg %d cycles, %d instrs)\n  harness: %+v (span %d cycles, %d instrs)\n",
			pair.Label, got, tc.SimCycles, tc.Instructions, want, tcSpan.simCycles, tcSpan.instructions)
		rd.failed = 1
	}

	instrs := float64(tc.Instructions)
	vals["kernel.ns_per_instr"] = median(nsPerInstr)
	vals["kernel.allocs_per_instr"] = median(allocsPerInstr)
	vals["kernel.switches_per_kinstr"] = float64(tc.ContextSwitches) / instrs * 1000
	vals["cache.accesses_per_instr"] = float64(tc.L1IAccesses+tc.L1DAccesses) / instrs
	vals["cache.sbit_delayed_per_kinstr"] = float64(tc.SBitDelayedLoads) / instrs * 1000

	m, _, _, err := runLeg(tcCfg, pair)
	if err != nil {
		return rd, err
	}
	vals["cache.llc_mpki"] = float64(m.Hierarchy().LLC().Stats.Misses) / instrs * 1000

	streams, err := recordStreams(tcCfg, pair)
	if err != nil {
		return rd, err
	}
	vals["kernel.translate_ns"] = timeTranslate(streams)
	vals["cache.access_ns"] = timeAccess(tcCfg, streams)
	vals["workload.step_ns"], err = timeStep(pair)
	if err != nil {
		return rd, err
	}
	vals["core.switch_us"] = timeSwitch(tcCfg)

	explained := vals["cache.accesses_per_instr"]*vals["cache.access_ns"] +
		vals["kernel.switches_per_kinstr"]/1000*vals["core.switch_us"]*1000 +
		vals["workload.step_ns"]
	vals["reconcile.unexplained_ns_per_instr"] = vals["kernel.ns_per_instr"] - explained
	return rd, nil
}

// stream is one process's recorded memory operations with its address
// space, for replay against the translation and cache layers alone.
type stream struct {
	as  *kernel.AddressSpace
	ops []trace.Record
}

// recordStreams reruns the leg with each process wrapped in a
// trace.RecordingProc and returns the recorded Fetch/Load/Store streams.
func recordStreams(cfg machine.Config, pair workload.Pair) ([]stream, error) {
	m := machine.New(cfg)
	kps, err := spawnPair(m, pair, nil)
	if err != nil {
		return nil, err
	}
	bufs := make([]*bytes.Buffer, len(kps))
	recs := make([]*trace.RecordingProc, len(kps))
	for i, kp := range kps {
		bufs[i] = &bytes.Buffer{}
		recs[i] = &trace.RecordingProc{Inner: kp.Proc, W: trace.NewWriter(bufs[i])}
		kp.Proc = recs[i]
	}
	m.Kernel().RunCtx(context.Background(), 1<<62)
	var out []stream
	for i, kp := range kps {
		if recs[i].Err != nil {
			return nil, recs[i].Err
		}
		if err := recs[i].W.Flush(); err != nil {
			return nil, err
		}
		all, err := trace.NewReader(bufs[i]).ReadAll()
		if err != nil {
			return nil, err
		}
		s := stream{as: kp.AS}
		for _, r := range all {
			switch r.Kind {
			case trace.KindFetch, trace.KindLoad, trace.KindStore:
				s.ops = append(s.ops, r)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// timeTranslate is the median ns per AddressSpace.Translate over the
// recorded streams (every page is already mapped and COW-broken by the
// recording run, so replaying translations changes nothing).
func timeTranslate(streams []stream) float64 {
	var per []float64
	for rep := 0; rep < anatomyReps; rep++ {
		n := 0
		t0 := time.Now()
		for _, s := range streams {
			for _, r := range s.ops {
				if _, _, err := s.as.Translate(r.Addr, r.Kind == trace.KindStore); err == nil {
					n++
				}
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// timeAccess feeds the translated streams straight into a fresh hierarchy
// of the leg's configuration: median ns per Hierarchy.Access.
func timeAccess(cfg machine.Config, streams []stream) float64 {
	type access struct {
		pa   uint64
		kind cache.Kind
	}
	var accs []access
	for _, s := range streams {
		for _, r := range s.ops {
			kind := cache.Fetch
			switch r.Kind {
			case trace.KindLoad:
				kind = cache.Load
			case trace.KindStore:
				kind = cache.Store
			}
			pa, _, err := s.as.Translate(r.Addr, kind == cache.Store)
			if err == nil {
				accs = append(accs, access{pa, kind})
			}
		}
	}
	var per []float64
	for rep := 0; rep < anatomyReps; rep++ {
		h := cache.NewHierarchy(cfg.HierarchyConfig())
		var now uint64
		t0 := time.Now()
		for _, a := range accs {
			now += h.Access(now, 0, a.pa, a.kind).Latency + 1
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(accs)))
	}
	return median(per)
}

// nopEnv is a sim.Env that does nothing, so Step's own cost is all that is
// timed.
type nopEnv struct{}

func (nopEnv) Fetch(uint64)                  {}
func (nopEnv) Load(uint64) uint64            { return 0 }
func (nopEnv) Store(uint64, uint64)          {}
func (nopEnv) Flush(uint64)                  {}
func (nopEnv) Now() uint64                   { return 0 }
func (nopEnv) Tick(uint64)                   {}
func (nopEnv) Instret(uint64)                {}
func (nopEnv) Syscall(uint64, uint64) uint64 { return 0 }
func (nopEnv) PID() int                      { return 1 }

var _ sim.Env = nopEnv{}

// timeStep is the median ns per workload.Proc.Step over both profiles of
// the pair, each run for the leg's full budget.
func timeStep(pair workload.Pair) (float64, error) {
	var per []float64
	for rep := 0; rep < anatomyReps; rep++ {
		n := 0
		t0 := time.Now()
		for i, name := range []string{pair.A, pair.B} {
			prof, err := workload.Spec(name)
			if err != nil {
				return 0, err
			}
			p := workload.NewProc(prof, specTotal, uint64(specSeedA+i*(specSeedB-specSeedA)))
			var env sim.Env = nopEnv{}
			for p.Step(env) {
				n++
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// switchIters is how many save/restore pairs one core.switch_us sample
// times.
const switchIters = 2000

// timeSwitch times the s-bit column save and restore a context switch
// performs, through Hierarchy.SecCaches on a warmed hierarchy (the loop
// BenchmarkContextSwitchRestore drives): median µs per switch.
func timeSwitch(cfg machine.Config) float64 {
	h := cache.NewHierarchy(cfg.HierarchyConfig())
	for i := 0; i < 4096; i++ {
		h.Access(uint64(i), 0, uint64(i)*cache.LineSize, cache.Load)
	}
	ccs := h.SecCaches(0)
	bufs := make([]core.SecVec, len(ccs))
	for i, cc := range ccs {
		bufs[i] = make(core.SecVec, core.VecWords(cc.Cache.Lines()))
	}
	var per []float64
	for rep := 0; rep < anatomyReps; rep++ {
		t0 := time.Now()
		for i := 0; i < switchIters; i++ {
			for j, cc := range ccs {
				cc.Cache.Sec().SaveColumnInto(cc.LocalCtx, bufs[j])
				cc.Cache.Sec().RestoreColumn(cc.LocalCtx, bufs[j], uint64(i), uint64(i)+1)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/switchIters/1000)
	}
	return median(per)
}
