package machine

import (
	"fmt"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/kernel"
)

// TestDefenseConfigMapping pins the Config.Defense routing (static()): each
// registry kind maps to exactly its structural hierarchy/kernel knobs (s-bit
// mode, way partitioning, flush-on-switch), a set Defense overrides Mode
// entirely, and New installs a runtime defense for — and only for — the
// kinds that declare one.
func TestDefenseConfigMapping(t *testing.T) {
	type knobs struct {
		mode        cache.SecMode
		partitioned bool
		flush       bool
	}
	structural := map[string]knobs{
		defense.None:          {},
		defense.TimeCache:     {mode: cache.SecTimeCache},
		defense.FTM:           {mode: cache.SecFTM},
		defense.DAWGLite:      {partitioned: true},
		defense.FlushOnSwitch: {flush: true},
		defense.Clepsydra:     {},
		defense.FASE:          {},
	}
	for kind, want := range structural {
		cfg := Config{Defense: kind}
		h := cache.DefaultHierarchyConfig()
		h.Mode, h.Partitioned = want.mode, want.partitioned
		if got := cfg.HierarchyConfig(); got != h {
			t.Errorf("%s: HierarchyConfig\n got %+v\nwant %+v", kind, got, h)
		}
		k := kernel.DefaultConfig()
		k.FlushOnSwitch = want.flush
		if got := cfg.KernelConfig(); got != k {
			t.Errorf("%s: KernelConfig\n got %+v\nwant %+v", kind, got, k)
		}
	}

	// A set Defense is authoritative: Mode is ignored, never merged.
	for _, kind := range []string{defense.None, defense.DAWGLite, defense.FlushOnSwitch} {
		over := Config{Defense: kind, Mode: cache.SecTimeCache}
		if got, want := over.HierarchyConfig(), (Config{Defense: kind}).HierarchyConfig(); got != want {
			t.Errorf("%s: Defense did not override Mode:\n got %+v\nwant %+v", kind, got, want)
		}
		if got, want := over.KernelConfig(), (Config{Defense: kind}).KernelConfig(); got != want {
			t.Errorf("%s: Defense did not override Mode:\n got %+v\nwant %+v", kind, got, want)
		}
	}

	runtime := map[string]bool{defense.Clepsydra: true, defense.FASE: true}
	for _, kind := range defense.Kinds() {
		m := New(Config{Defense: kind, PhysFrames: 8192})
		d := m.Hierarchy().Defense()
		if runtime[kind] {
			if d == nil || d.Name() != kind {
				t.Errorf("New(%s) installed defense %v, want runtime %q", kind, d, kind)
			}
			if st := m.Hierarchy().DefenseStats(); st.Name != kind {
				t.Errorf("DefenseStats().Name = %q, want %q", st.Name, kind)
			}
		} else if d != nil {
			t.Errorf("New(%s) installed runtime defense %q, want structural-only", kind, d.Name())
		}
	}
}

// TestDefenseConfigEquivalence is the byte-identity claim at the machine
// layer: a mode-based kind configured through the registry runs cycle- and
// counter-identical to the same machine configured through Mode, and the
// kinds with no Mode spelling (dawg-lite, flush-on-switch) run
// deterministically and actually change the run relative to none.
func TestDefenseConfigEquivalence(t *testing.T) {
	run := func(cfg Config) string {
		cfg.PhysFrames = 8192
		return runWorkloadPair(t, New(cfg))
	}
	none := run(Config{Defense: defense.None})
	modes := map[string]cache.SecMode{
		defense.None:      cache.SecOff,
		defense.TimeCache: cache.SecTimeCache,
		defense.FTM:       cache.SecFTM,
	}
	for _, kind := range []string{defense.None, defense.TimeCache, defense.FTM, defense.DAWGLite, defense.FlushOnSwitch} {
		t.Run(kind, func(t *testing.T) {
			got := run(Config{Defense: kind})
			if mode, ok := modes[kind]; ok {
				if want := run(Config{Mode: mode}); got != want {
					t.Errorf("registry spelling diverged from Mode:\n got %s\nwant %s", got, want)
				}
				return
			}
			if again := run(Config{Defense: kind}); again != got {
				t.Errorf("two fresh machines disagree:\n got %s\nwant %s", again, got)
			}
			if got == none {
				t.Errorf("%s ran identically to none: the defense never engaged", kind)
			}
		})
	}
}

// defenseFingerprint extends runWorkloadPair's fingerprint with the runtime
// defense's own counters, so a stale TTL table or ownership map that
// happens not to move the cycle count still fails the comparison.
func defenseFingerprint(t testing.TB, m *Machine) string {
	return runWorkloadPair(t, m) + fmt.Sprintf(" def=%+v", m.Hierarchy().DefenseStats())
}

// TestDefenseResetDeterminism extends the pooling contract to runtime
// defenses: a Reset (and a pooled Get-after-Put) machine carrying clepsydra
// or fase state must replay exactly like a fresh machine.
func TestDefenseResetDeterminism(t *testing.T) {
	for _, kind := range []string{defense.Clepsydra, defense.FASE} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{Defense: kind, PhysFrames: 8192}
			fresh := defenseFingerprint(t, New(cfg))

			m := New(cfg)
			if got := defenseFingerprint(t, m); got != fresh {
				t.Fatalf("two fresh machines disagree:\n got %s\nwant %s", got, fresh)
			}
			m.Reset()
			if m.Hierarchy().Defense() == nil {
				t.Fatal("Reset uninstalled the runtime defense")
			}
			if got := defenseFingerprint(t, m); got != fresh {
				t.Fatalf("reset machine diverged from fresh:\n got %s\nwant %s", got, fresh)
			}

			pool := NewPool()
			p1 := pool.Get(cfg)
			defenseFingerprint(t, p1)
			pool.Put(p1)
			p2 := pool.Get(cfg)
			if p2 != p1 {
				t.Fatal("pool did not reuse the machine for the defense config")
			}
			if got := defenseFingerprint(t, p2); got != fresh {
				t.Fatalf("pooled machine diverged from fresh:\n got %s\nwant %s", got, fresh)
			}
		})
	}
}

// TestDefenseSnapshotForkDeterminism extends the snapshot contract to
// runtime defenses: the TTL table / ownership map is deep-copied at capture,
// so a fork of a warm snapshot finishes counter- and defense-counter-
// identical to a cold run, and sibling forks do not share defense state.
func TestDefenseSnapshotForkDeterminism(t *testing.T) {
	const total, warmup = 20_000, 15_000
	for _, kind := range []string{defense.Clepsydra, defense.FASE} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{Defense: kind, PhysFrames: 8192}
			cold := New(cfg)
			spawnPairWarm(t, cold, total, warmup, nil)
			want := finishFingerprint(cold, cold.Kernel().Run(1<<62)) +
				fmt.Sprintf(" def=%+v", cold.Hierarchy().DefenseStats())

			snap, src := warmSnapshot(t, cfg, total, warmup)
			finish := func(m *Machine) string {
				return finishFingerprint(m, m.Kernel().Run(1<<62)) +
					fmt.Sprintf(" def=%+v", m.Hierarchy().DefenseStats())
			}
			f1 := snap.Fork()
			if got := finish(f1); got != want {
				t.Fatalf("fork diverged from cold run:\n got %s\nwant %s", got, want)
			}
			f2 := snap.Fork()
			if got := finish(f2); got != want {
				t.Fatalf("second fork diverged (defense state shared between siblings?):\n got %s\nwant %s", got, want)
			}
			if got := finish(src); got != want {
				t.Fatalf("snapshotted source diverged from cold run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
