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
	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/machine"
	"timecache/internal/replacement"
	"timecache/internal/runner"
	"timecache/internal/stats"
	"timecache/internal/workload"
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

// matrixCell is one unit of matrix work: an attack mounted under a defense
// (attack != "") or a workload pair run under a defense for the overhead
// columns (attack == "").
type matrixCell struct {
	defense string
	attack  string
	pair    workload.Pair
}

// matrixTable runs the defenses×(attacks ∪ pairs) grid and renders it with
// one row per defense: a leaked-bits column per attack (the binary-channel
// capacity of the attacker's recovery, 0 = defended) and a normalized-
// slowdown column per workload pair (against the "none" baseline, which is
// run implicitly when not among the requested rows). Cells are fanned out
// across opts.Jobs workers in flat declaration order, so -j1 and -jN render
// byte-identical tables.
func matrixTable(defenses, attacks []string, pairs []workload.Pair, attackBits int, seed uint64, opts Options) (*stats.Table, error) {
	opts = opts.withDefaults()

	// The overhead columns normalize against "none"; run its legs even when
	// the row was not requested.
	perfDefs := defenses
	if !containsString(defenses, defense.None) {
		perfDefs = append([]string{defense.None}, defenses...)
	}

	cells := make([]matrixCell, 0, len(defenses)*len(attacks)+len(perfDefs)*len(pairs))
	for _, d := range defenses {
		for _, a := range attacks {
			cells = append(cells, matrixCell{defense: d, attack: a})
		}
	}
	for _, d := range perfDefs {
		for _, p := range pairs {
			cells = append(cells, matrixCell{defense: d, pair: p})
		}
	}

	vals, err := runner.MapWorkersCtx(opts.ctx(), len(cells), opts.pool(), opts.newPool, func(pool *machine.Pool, i int) (float64, error) {
		c := cells[i]
		if c.attack != "" {
			return runMatrixAttack(c.defense, c.attack, attackBits, seed, opts)
		}
		// A perf cell's measured cycles; normalized against "none" below.
		cycles, err := runDefenseLeg(pool, c.pair, c.defense, "matrix-"+c.defense, opts)
		return float64(cycles), err
	})
	if err != nil {
		return nil, err
	}

	header := []string{"defense"}
	for _, a := range attacks {
		header = append(header, "bits-"+a)
	}
	for _, p := range pairs {
		header = append(header, "slowdown-"+p.Label)
	}
	tab := stats.NewTable(header...)

	// vals is laid out exactly as cells was: the attack block (defense-major)
	// then the perf block (perfDefs-major).
	perfBase := len(defenses) * len(attacks)
	baseline := func(pi int) float64 {
		for di, d := range perfDefs {
			if d == defense.None {
				return vals[perfBase+di*len(pairs)+pi]
			}
		}
		return 0 // unreachable: perfDefs always contains "none"
	}
	for di, d := range defenses {
		row := make([]any, 0, len(header))
		row = append(row, d)
		for ai := range attacks {
			row = append(row, stats.BinaryChannelBits(attackBits, vals[di*len(attacks)+ai]))
		}
		pdi := indexOfString(perfDefs, d)
		for pi := range pairs {
			cycles := vals[perfBase+pdi*len(pairs)+pi]
			base := baseline(pi)
			if base == 0 {
				return nil, fmt.Errorf("harness: matrix baseline run of %s produced zero cycles", pairs[pi].Label)
			}
			row = append(row, cycles/base)
		}
		tab.Add(row...)
	}
	return tab, nil
}

// runMatrixAttack mounts one attack under one defense. The attack scenarios
// assemble their own machines, so the leg is accounted by count and span
// only, mirroring securityTable.
func runMatrixAttack(def, att string, bits int, seed uint64, opts Options) (float64, error) {
	a := matrixAttackByName(att)
	if a == nil {
		return 0, fmt.Errorf("harness: unknown attack %q (want one of %v)", att, MatrixAttacks())
	}
	start := opts.legStart()
	cfg := machineConfig(cache.SecOff, 1, opts, 0)
	cfg.Defense = def
	acc, err := a.run(cfg, bits, seed)
	if err != nil {
		return 0, err
	}
	opts.Account.AddLeg()
	if opts.Spans != nil {
		opts.Spans.Span("matrix/"+def+"/"+att, "leg", start, opts.wallNow(), nil)
	}
	return acc, nil
}

func containsString(ss []string, s string) bool { return indexOfString(ss, s) >= 0 }

func indexOfString(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}
