// The defense×attack evaluation matrix: every registered defense is run
// against every side-channel attack in the corpus and against real
// workloads, producing one grid that shows in a single table what each
// mechanism stops, what it misses, and what it costs. This is the
// experiment the Defense seam exists for — a row is added by registering a
// kind, not by writing a new experiment.
package harness

import (
	"fmt"

	"timecache/internal/attack"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/stats"
)

// matrixAttack ties an attack-corpus name to its Config-parameterized
// runner, reduced to the attacker's bit-recovery accuracy. Declaration
// order is the canonical column order (the matrix job's default attack
// set).
type matrixAttack struct {
	name string
	run  func(cfg machine.Config, bits int, seed uint64) (float64, error)
}

var matrixAttacks = []matrixAttack{
	{"flush-reload", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunRSAConfig(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"flush-flush", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunFlushFlushConfig(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"prime-probe", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunPrimeProbeConfig(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"lru", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunLRUConfig(cfg, replacement.LRU, bits, seed)
		return r.Accuracy, err
	}},
	{"coherence", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunCoherenceConfig(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"smt", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunSMTConfig(cfg, bits, seed)
		return r.Accuracy, err
	}},
	{"llc-occupancy", func(cfg machine.Config, bits int, seed uint64) (float64, error) {
		r, err := attack.RunLLCOccupancy(cfg, bits, seed)
		return r.Accuracy, err
	}},
}

// MatrixAttacks lists the attack-corpus names in canonical column order.
func MatrixAttacks() []string {
	out := make([]string, len(matrixAttacks))
	for i, a := range matrixAttacks {
		out[i] = a.name
	}
	return out
}

func matrixAttackByName(name string) *matrixAttack {
	for i := range matrixAttacks {
		if matrixAttacks[i].name == name {
			return &matrixAttacks[i]
		}
	}
	return nil
}

// matrixLeg renders one matrix row: a leaked-bits column per attack (the
// binary-channel capacity of the attacker's recovery, 0 = defended) and a
// normalized-slowdown column per workload pair. The leg mounts its attacks,
// then runs the pairs under "none" for the normalization baseline, then
// under its own defense (the "none" row reuses its baseline runs).
func matrixLeg(j Job, leg int, pool *machine.Pool, opts Options) (*stats.Table, error) {
	pairs, err := selectPairs(j.Pairs)
	if err != nil {
		return nil, err
	}
	d := j.Defenses[leg]
	header := []string{"defense"}
	for _, a := range j.Attacks {
		header = append(header, "bits-"+a)
	}
	for _, p := range pairs {
		header = append(header, "slowdown-"+p.Label)
	}
	row := make([]any, 0, len(header))
	row = append(row, d)
	for _, a := range j.Attacks {
		acc, err := runMatrixAttack(d, a, j.AttackBits, j.Seed, opts)
		if err != nil {
			return nil, err
		}
		row = append(row, stats.BinaryChannelBits(j.AttackBits, acc))
	}
	base := make([]uint64, len(pairs))
	for i, p := range pairs {
		if base[i], err = runDefense(pool, p, defense.None, "matrix-"+defense.None, opts); err != nil {
			return nil, err
		}
		if base[i] == 0 {
			return nil, fmt.Errorf("harness: matrix baseline run of %s produced zero cycles", p.Label)
		}
	}
	for i, p := range pairs {
		cycles := base[i]
		if d != defense.None {
			if cycles, err = runDefense(pool, p, d, "matrix-"+d, opts); err != nil {
				return nil, err
			}
		}
		row = append(row, float64(cycles)/float64(base[i]))
	}
	tab := stats.NewTable(header...)
	tab.Add(row...)
	return tab, nil
}

// runMatrixAttack mounts one attack under one defense. The attack scenarios
// assemble their own machines, so the run is accounted by count and span
// only, like the security experiment's.
func runMatrixAttack(def, att string, bits int, seed uint64, opts Options) (float64, error) {
	if err := opts.ctx().Err(); err != nil {
		return 0, err
	}
	start := opts.legStart()
	cfg := machineConfig(def, 1, opts, 0)
	acc, err := matrixAttackByName(att).run(cfg, bits, seed)
	if err != nil {
		return 0, err
	}
	opts.finishLeg("matrix/"+def+"/"+att, start, nil)
	return acc, nil
}
