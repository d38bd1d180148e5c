package core

import (
	"fmt"
	"testing"

	"timecache/internal/clock"
)

// switchBenchLines matches the paper's 2 MB LLC (32768 lines), the largest
// column the kernel saves/restores at each context switch.
const switchBenchLines = 32768

// fillTracker populates a tracker with an alternating two-context residency
// pattern so save/restore sees a realistic mixed column.
func fillTracker(tr Tracker) {
	lines, contexts := trackerShape(tr)
	for line := 0; line < lines; line++ {
		tr.OnFill(line, line%contexts, clock.Cycles(line))
		if line%3 == 0 {
			tr.OnFirstAccess(line, (line+1)%contexts)
		}
	}
}

// saveRestoreLoop is one benchmark iteration: the software half of a
// context switch with a reused buffer (save ctx 0's column, then restore it
// against an advancing Ts/now).
func saveRestoreLoop(b *testing.B, tr Tracker) {
	buf := saveColumn(tr, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SaveColumnInto(0, buf)
		tr.RestoreColumn(0, buf, uint64(i), uint64(i)+1)
	}
}

// BenchmarkSaveRestoreColumn measures the context-switch bookkeeping hot
// path for each tracker design. With buffer reuse every variant runs at
// 0 allocs/op (asserted by TestSaveRestoreColumnZeroAllocs).
func BenchmarkSaveRestoreColumn(b *testing.B) {
	b.Run("secarray", func(b *testing.B) {
		tr := NewSecArray(DefaultConfig(), switchBenchLines, 2)
		fillTracker(tr)
		saveRestoreLoop(b, tr)
	})
	b.Run("secarray-gatelevel", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.GateLevel = true
		tr := NewSecArray(cfg, switchBenchLines, 2)
		fillTracker(tr)
		saveRestoreLoop(b, tr)
	})
	b.Run("limited", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.MaxSharers = 2
		tr := NewLimitedTracker(cfg, switchBenchLines, 8)
		fillTracker(tr)
		saveRestoreLoop(b, tr)
	})
}

// TestSaveRestoreColumnZeroAllocs asserts the switch path performs no
// allocation once the caller reuses its SecVec buffer — the property the
// kernel's per-(process, cache) buffers rely on.
func TestSaveRestoreColumnZeroAllocs(t *testing.T) {
	gate := DefaultConfig()
	gate.GateLevel = true
	limited := DefaultConfig()
	limited.MaxSharers = 2
	trackers := map[string]Tracker{
		"secarray":           NewSecArray(DefaultConfig(), 1024, 2),
		"secarray-gatelevel": NewSecArray(gate, 1024, 2),
		"limited":            NewLimitedTracker(limited, 1024, 8),
	}
	for name, tr := range trackers {
		fillTracker(tr)
		buf := saveColumn(tr, 0)
		i := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			tr.SaveColumnInto(0, buf)
			tr.RestoreColumn(0, buf, i, i+1)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: save+restore allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// BenchmarkOnFill measures the per-fill column maintenance across context
// counts (the per-access cost the column-major layout must keep cheap).
func BenchmarkOnFill(b *testing.B) {
	for _, ctxs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("contexts-%d", ctxs), func(b *testing.B) {
			tr := NewSecArray(DefaultConfig(), 4096, ctxs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.OnFill(i%4096, i%ctxs, clock.Cycles(i))
			}
		})
	}
}
