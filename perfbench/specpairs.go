package main

import (
	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/harness"
	"timecache/internal/machine"
)

// specSlice is the golden Table II slice: a streaming (2Xlbm), a code-heavy
// (2Xgobmk) and a mixed (leslie+gobmk) pair. The seed only orders it.
var specSlice = []string{"2Xlbm", "2Xgobmk", "leslie+gobmk"}

// tableIIModes are the two legs Table II runs per pair.
var tableIIModes = []cache.SecMode{cache.SecOff, cache.SecTimeCache}

// runSpecPairs runs table2 over the seeded order of the slice, one leg per
// pair, each checked against the pair's golden row.
func runSpecPairs(cfg config) (result, error) {
	job := harness.Job{Experiment: harness.ExpTableII, Pairs: permuted(rng(cfg.seed, 1), specSlice)}
	return runSim(cfg, simWorkload{
		job: job,
		legJob: func(leg int) harness.Job {
			return harness.Job{Experiment: harness.ExpTableII, Pairs: job.Pairs[leg : leg+1]}
		},
		shapes: func() ([]machine.Config, error) {
			var out []machine.Config
			for _, label := range job.Pairs {
				pair, err := pairByLabel(label)
				if err != nil {
					return nil, err
				}
				for _, mode := range tableIIModes {
					c, err := specLegConfig(pair, mode, defense.KindOfMode(mode))
					if err != nil {
						return nil, err
					}
					out = append(out, c)
				}
			}
			return out, nil
		},
		paperErrs: paperErrs,
		anatomy: func(_ *refs, vals map[string]float64) ([]round, error) {
			rd, err := legAnatomy("2Xgobmk", vals)
			return []round{rd}, err
		},
	})
}
