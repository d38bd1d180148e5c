// Package defense is the registry of cache-side-channel defenses the
// simulator can evaluate. Every defense has two halves:
//
//   - A Static half: the structural hierarchy/kernel configuration it needs
//     (SecMode for the s-bit trackers, DAWG-lite way partitioning,
//     flush-on-switch). These mechanisms are wired into the hierarchy at
//     construction and cost nothing at runtime beyond what they always did.
//   - An optional runtime half: a cache.Defense instance holding per-access
//     state of its own (Clepsydra-style timed eviction, FASE-style
//     selective flushing), installed with Hierarchy.SetDefense.
//
// The historical defenses (baseline/timecache/ftm and the ablation's
// partitioned and flush-on-switch variants) are pure-static kinds: their
// per-access path pays only a nil check. The registry kind is the only
// defense selector above internal/machine.
package defense

import (
	"flag"
	"fmt"
	"strings"

	"timecache/internal/cache"
)

// Registry kind names. These are user-facing (job specs, CLI flags, result
// tables) and participate in result-cache fingerprints — renaming one is a
// fingerprint-schema change.
const (
	// None is the insecure baseline: every resident line hits.
	None = "none"
	// TimeCache is the paper's defense: per-context s-bits at every level.
	TimeCache = "timecache"
	// FTM is the First Time Miss baseline: per-core presence bits at the
	// LLC only, no context-switch bookkeeping.
	FTM = "ftm"
	// DAWGLite way-partitions every cache across security domains.
	DAWGLite = "dawg-lite"
	// FlushOnSwitch flushes every cache at each context switch.
	FlushOnSwitch = "flush-on-switch"
	// Clepsydra evicts lines when their per-fill time-to-live expires
	// (ClepsydraCache, arXiv:2104.11469).
	Clepsydra = "clepsydra"
	// FASE selectively flushes the switching core's private caches at each
	// context switch, keeping the incoming process's own lines
	// (arXiv:2204.05508).
	FASE = "fase"
)

// Static is the structural machine configuration a defense kind requires.
type Static struct {
	Mode          cache.SecMode
	Partitioned   bool
	FlushOnSwitch bool
}

// kindSpec ties a registry name to its static config and optional runtime
// constructor. Declaration order is the canonical presentation order
// (Kinds, the matrix job's default defense set).
type kindSpec struct {
	name    string
	static  Static
	runtime func(h *cache.Hierarchy) cache.Defense
}

var kinds = []kindSpec{
	{None, Static{Mode: cache.SecOff}, nil},
	{TimeCache, Static{Mode: cache.SecTimeCache}, nil},
	{FTM, Static{Mode: cache.SecFTM}, nil},
	{DAWGLite, Static{Mode: cache.SecOff, Partitioned: true}, nil},
	{FlushOnSwitch, Static{Mode: cache.SecOff, FlushOnSwitch: true}, nil},
	{Clepsydra, Static{Mode: cache.SecOff}, newClepsydra},
	{FASE, Static{Mode: cache.SecOff}, newFASE},
}

func lookup(kind string) *kindSpec {
	for i := range kinds {
		if kinds[i].name == kind {
			return &kinds[i]
		}
	}
	return nil
}

// Kinds returns every registered defense kind in canonical order.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name
	}
	return out
}

// Valid reports whether kind names a registered defense.
func Valid(kind string) bool { return lookup(kind) != nil }

// StaticOf returns the structural configuration for kind, or an error
// naming the valid kinds when it is unknown.
func StaticOf(kind string) (Static, error) {
	if k := lookup(kind); k != nil {
		return k.static, nil
	}
	return Static{}, fmt.Errorf("defense: unknown kind %q (valid: %s)", kind, strings.Join(Kinds(), ", "))
}

// Flag is a flag.Value holding a registry kind. Set rejects an unknown kind
// with StaticOf's error, so a CLI's -defense flag is checked as it parses.
type Flag string

// FlagVar registers the -defense flag on fs with default def.
func FlagVar(fs *flag.FlagSet, def string) *Flag {
	f := Flag(def)
	fs.Var(&f, "defense", "defense registry kind: "+strings.Join(Kinds(), " | "))
	return &f
}

func (f *Flag) String() string { return string(*f) }

// Set implements flag.Value.
func (f *Flag) Set(kind string) error {
	if _, err := StaticOf(kind); err != nil {
		return err
	}
	*f = Flag(kind)
	return nil
}

// NewRuntime builds kind's runtime defense over h, or nil when the kind is
// pure-static. The caller must have validated kind (machine.Config
// validation, job validation); an unknown kind panics.
func NewRuntime(kind string, h *cache.Hierarchy) cache.Defense {
	k := lookup(kind)
	if k == nil {
		panic(fmt.Sprintf("defense: unknown kind %q", kind))
	}
	if k.runtime == nil {
		return nil
	}
	return k.runtime(h)
}

// KindOfMode maps a structural SecMode to its registry kind. Only
// machine.Config's legacy Mode fold and the benchmark module use it; it
// goes with machine.Config.Mode (ROADMAP item 1(b)).
func KindOfMode(m cache.SecMode) string {
	switch m {
	case cache.SecTimeCache:
		return TimeCache
	case cache.SecFTM:
		return FTM
	default:
		return None
	}
}
