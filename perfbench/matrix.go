package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"timecache/internal/attack"
	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/stats"
)

// runDefenseMatrix runs the default matrix job in the seeded defense and
// attack order, one leg per defense row, each checked against the golden
// matrix's cells for that defense.
func runDefenseMatrix(cfg config) (result, error) {
	r := rng(cfg.seed, 2)
	job := harness.Job{
		Experiment: harness.ExpMatrix,
		Defenses:   permuted(r, defense.Kinds()),
		Attacks:    permuted(r, harness.MatrixAttacks()),
		AttackBits: goldenAttackBits,
	}
	return runSim(cfg, simWorkload{
		job: job,
		legJob: func(leg int) harness.Job {
			return harness.Job{Experiment: harness.ExpMatrix, Defenses: job.Defenses[leg : leg+1], Attacks: job.Attacks}
		},
		// The attack cells build their own machines; the pool serves the
		// perf pair's leg under each defense.
		shapes: func() ([]machine.Config, error) {
			var out []machine.Config
			for _, label := range job.Canonical().Pairs {
				pair, err := pairByLabel(label)
				if err != nil {
					return nil, err
				}
				for _, def := range job.Defenses {
					c, err := specLegConfig(pair, cache.SecOff, def)
					if err != nil {
						return nil, err
					}
					out = append(out, c)
				}
			}
			return out, nil
		},
		paperErrs: matrixPaperErrs,
		anatomy: func(ref *refs, vals map[string]float64) ([]round, error) {
			mach, err := machineAnatomy(vals)
			if err != nil {
				return nil, err
			}
			att, err := attackAnatomy(ref, vals)
			if err != nil {
				return nil, err
			}
			pair, err := pairByLabel("2Xgobmk")
			if err != nil {
				return nil, err
			}
			tcCfg, err := specLegConfig(pair, cache.SecOff, defense.TimeCache)
			if err != nil {
				return nil, err
			}
			vals["core.switch_us"] = timeSwitch(tcCfg)
			return []round{mach, att}, nil
		},
	})
}

// matrixPaperErrs compares the timecache row's slowdown on each perf pair
// with the paper's normalized time for that pair.
func matrixPaperErrs(t *stats.Table) []float64 {
	var out []float64
	row, err := rowOf(t, defense.TimeCache)
	if err != nil {
		return nil
	}
	for i, h := range t.Header {
		label, ok := strings.CutPrefix(h, "slowdown-")
		if !ok {
			continue
		}
		paper, ok := paperNorm(label)
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(row[i], &v); err == nil {
			d := (v - paper) * 100
			if d < 0 {
				d = -d
			}
			out = append(out, d)
		}
	}
	return out
}

// machineAnatomy times the machine layer on the matrix's perf-leg machine
// under every defense kind: assembly (New), Reset of a machine that ran to
// its warm point, Snapshot at the warm point, and a pooled Fork of that
// snapshot. Medians across defenses (of medians across repetitions).
func machineAnatomy(vals map[string]float64) (round, error) {
	rd := round{attempted: 1}
	pair, err := pairByLabel("2Xgobmk")
	if err != nil {
		return rd, err
	}
	var news, resets, snaps, forks []float64
	for _, def := range defense.Kinds() {
		cfg, err := specLegConfig(pair, cache.SecOff, def)
		if err != nil {
			return rd, err
		}
		var n, rs, sn, fk []float64
		for rep := 0; rep < anatomyReps; rep++ {
			t0 := time.Now()
			m := machine.New(cfg)
			n = append(n, float64(time.Since(t0).Nanoseconds())/1e3)

			k := m.Kernel()
			if _, err := spawnPair(m, pair, k.Interrupt); err != nil {
				return rd, err
			}
			k.RunCtx(context.Background(), 1<<62)
			k.ClearInterrupt()
			t0 = time.Now()
			s, err := m.Snapshot()
			sn = append(sn, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return rd, fmt.Errorf("snapshot %s: %w", def, err)
			}

			pool := machine.NewPool()
			pool.Put(machine.New(cfg))
			t0 = time.Now()
			f := pool.Fork(s)
			fk = append(fk, float64(time.Since(t0).Nanoseconds())/1e3)
			// The fork must finish the leg exactly as the original does.
			f.Kernel().RunCtx(context.Background(), 1<<62)
			k.RunCtx(context.Background(), 1<<62)
			if legCounters(f.Kernel()) != legCounters(k) {
				fmt.Fprintf(os.Stderr, "perfbench: %s fork diverged from its original\n", def)
				rd.failed = 1
			}

			t0 = time.Now()
			m.Reset()
			rs = append(rs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		news, resets = append(news, median(n)), append(resets, median(rs))
		snaps, forks = append(snaps, median(sn)), append(forks, median(fk))
	}
	vals["machine.new_us"] = median(news)
	vals["machine.reset_us"] = median(resets)
	vals["machine.snapshot_ms"] = median(snaps)
	vals["machine.fork_us"] = median(forks)
	return rd, nil
}

// attackRunners calls each matrix attack kind's public Config runner.
var attackRunners = map[string]func(cfg machine.Config, bits int, seed uint64) (float64, error){
	"flush-reload": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunRSAConfig(cfg, bits, seed)
		return r.Accuracy, err
	},
	"flush-flush": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunFlushFlushConfig(cfg, bits, seed)
		return r.Accuracy, err
	},
	"prime-probe": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunPrimeProbeConfig(cfg, bits, seed)
		return r.Accuracy, err
	},
	"lru": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunLRUConfig(cfg, replacement.LRU, bits, seed)
		return r.Accuracy, err
	},
	"coherence": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunCoherenceConfig(cfg, bits, seed)
		return r.Accuracy, err
	},
	"smt": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunSMTConfig(cfg, bits, seed)
		return r.Accuracy, err
	},
	"llc-occupancy": func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunLLCOccupancy(cfg, bits, seed)
		return r.Accuracy, err
	},
}

// matrixSeed is the matrix job's default secret seed.
const matrixSeed = 12345

// attackAnatomy calls every attack kind once per defense, as a matrix cell
// does, and reports the mean ms per call. Each call's leaked bits must
// equal the golden matrix cell.
func attackAnatomy(ref *refs, vals map[string]float64) (round, error) {
	var rd round
	for _, kind := range harness.MatrixAttacks() {
		run, ok := attackRunners[kind]
		if !ok {
			return rd, fmt.Errorf("no runner for matrix attack %q", kind)
		}
		var total time.Duration
		for _, def := range defense.Kinds() {
			rd.attempted++
			cfg := machine.Config{Defense: def, Cores: 1, LLCSize: 2 << 20}
			t0 := time.Now()
			acc, err := run(cfg, goldenAttackBits, matrixSeed)
			total += time.Since(t0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: attack %s under %s: %v\n", kind, def, err)
				rd.failed++
				continue
			}
			row, err := rowOf(ref.matrix, def)
			if err != nil {
				return rd, err
			}
			got := fmt.Sprintf("%.4f", stats.BinaryChannelBits(goldenAttackBits, acc))
			col := indexOf(ref.matrix.Header, "bits-"+kind)
			if col < 0 || row[col] != got {
				fmt.Fprintf(os.Stderr, "perfbench: attack %s under %s leaked %s bits, golden says %v\n", kind, def, got, row)
				rd.failed++
			}
		}
		vals["attack."+kind+"_ms"] = float64(total.Nanoseconds()) / 1e6 / float64(len(defense.Kinds()))
	}
	return rd, nil
}

func indexOf(xs []string, x string) int {
	for i, s := range xs {
		if s == x {
			return i
		}
	}
	return -1
}
