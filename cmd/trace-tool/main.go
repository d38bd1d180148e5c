// Command trace-tool records workload-model memory traces to files,
// inspects them, and replays them through configurable machines — so a
// trace captured once can be re-run against baseline and TimeCache
// hierarchies (or different cache sizes) for exact A/B comparisons.
//
// Usage:
//
//	trace-tool record -workload gobmk -instrs 100000 -o gobmk.trace
//	trace-tool info   -i gobmk.trace
//	trace-tool replay -i gobmk.trace -defense timecache -llc 1048576
package main

import (
	"flag"
	"fmt"
	"os"

	"timecache/internal/defense"
	"timecache/internal/kernel"
	"timecache/internal/machine"
	"timecache/internal/mem"
	"timecache/internal/stats"
	"timecache/internal/trace"
	"timecache/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fatal(fmt.Errorf("usage: trace-tool record|info|replay [flags]"))
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(flag.NewFlagSet("replay", flag.ExitOnError), os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

// machineFlags registers the machine-shape flags shared by record and
// replay and returns a builder that assembles the configured machine.
func machineFlags(fs *flag.FlagSet) func(kind string) *kernel.Kernel {
	frames := fs.Int("frames", 16384, "physical memory frames (64 MB default)")
	llc := fs.Int("llc", 0, "LLC size in bytes (0 = paper default, 2 MB)")
	slice := fs.Uint64("slice", 0, "scheduler time slice in cycles (0 = default)")
	return func(kind string) *kernel.Kernel {
		m := machine.New(machine.Config{
			Defense:     kind,
			LLCSize:     *llc,
			SliceCycles: *slice,
			PhysFrames:  *frames,
		})
		return m.Kernel()
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "gobmk", "SPEC workload model to record")
	instrs := fs.Uint64("instrs", 100_000, "instructions to record")
	seed := fs.Uint64("seed", 7, "workload seed")
	out := fs.String("o", "workload.trace", "output trace file")
	build := machineFlags(fs)
	fs.Parse(args)

	prof, err := workload.Spec(*name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	k := build(defense.None)
	as, err := workload.BuildSharedAS(k, prof)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f)
	rec := &trace.RecordingProc{Inner: workload.NewProc(prof, *instrs, *seed), W: w}
	if _, err := k.Spawn(*name, rec, as, 0); err != nil {
		return err
	}
	k.Run(1 << 62)
	if rec.Err != nil {
		return rec.Err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d records from %s (%d instructions) to %s\n",
		w.Count(), *name, *instrs, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "workload.trace", "trace file")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	counts := map[trace.Kind]int{}
	lines := map[uint64]bool{}
	for _, r := range recs {
		counts[r.Kind]++
		switch r.Kind {
		case trace.KindFetch, trace.KindLoad, trace.KindStore, trace.KindFlush:
			lines[r.Addr&^63] = true
		}
	}
	fmt.Printf("%s: %d records, %d distinct lines touched\n", *in, len(recs), len(lines))
	tb := stats.NewTable("kind", "count")
	for k := trace.Kind(0); counts[k] > 0 || k <= trace.KindInstret; k++ {
		tb.Add(k.String(), counts[k])
	}
	fmt.Print(tb.String())
	return nil
}

// replay parses args on fs and replays the trace on the configured machine.
func replay(fs *flag.FlagSet, args []string) error {
	in := fs.String("i", "workload.trace", "trace file")
	kind := defense.FlagVar(fs, defense.TimeCache)
	build := machineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return err
	}

	k := build(kind.String())
	// Replay into a flat identity-mapped space big enough for the trace's
	// addresses: map every page the trace touches.
	as := kernel.NewAddressSpace(k.Physical())
	mapped := map[uint64]bool{}
	for _, r := range recs {
		switch r.Kind {
		case trace.KindFetch, trace.KindLoad, trace.KindStore, trace.KindFlush:
			page := r.Addr &^ (mem.PageSize - 1)
			if !mapped[page] {
				mapped[page] = true
				if err := as.MapAnon(page, mem.PageSize, true); err != nil {
					return err
				}
			}
		}
	}
	rep := &trace.ReplayProc{Records: recs}
	if _, err := k.Spawn("replay", rep, as, 0); err != nil {
		return err
	}
	cycles := k.Run(1 << 62)
	fmt.Printf("replayed %d records in %d cycles (defense=%s)\n", rep.Replayed(), cycles, kind)
	tb := stats.NewTable("cache", "accesses", "hits", "misses", "first-access")
	for _, c := range k.Hierarchy().Caches() {
		tb.Add(c.Name(), c.Stats.Accesses, c.Stats.Hits, c.Stats.Misses, c.Stats.FirstAccess)
	}
	fmt.Print(tb.String())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace-tool:", err)
	os.Exit(1)
}
