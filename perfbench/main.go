// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and the job service in one process through their public entry
// points, checks every output against the golden and expected tables, and
// prints the metrics named in BENCHMARK.json as one JSON object on the last
// line of standard output.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload spec-pairs --seed 1 --seconds 25 --trace 0
//
// Workloads (see NOTES.md for why each exists and how each metric is formed):
//
//	spec-pairs      table2 over {2Xlbm, 2Xgobmk, leslie+gobmk}, one RunJobLeg per pair
//	defense-matrix  the default defense×attack matrix, one RunJobLeg per defense row
//	service-mix     the job daemon in-process: seeded misses and repeats from 2 clients
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload twice
// (untraced, then traced) and prints the per-layer metrics plus the tracing
// overhead. --regen rewrites perfbench/expected from the current commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	root    string        // repository checkout (references, scratch space)
	seed    uint64        // workload seed: the only source of input variation
	seconds time.Duration // minimum length of the timed phase
	trace   bool          // per-layer pass
}

// workloadFunc runs one workload and returns its metrics.
type workloadFunc func(cfg config) (result, error)

var workloads = map[string]workloadFunc{
	"spec-pairs":     runSpecPairs,
	"defense-matrix": runDefenseMatrix,
	"service-mix":    runServiceMix,
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository checkout: references are read and scratch files written under it")
	name := flag.String("workload", "", "spec-pairs, defense-matrix or service-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same job specs")
	seconds := flag.Int("seconds", 25, "minimum length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
	regen := flag.Bool("regen", false, "rewrite perfbench/expected from this commit (cross-checked cold and under snapshot-check) and exit")
	flag.Parse()

	if *regen {
		if err := regenExpected(*root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want spec-pairs, defense-matrix or service-mix)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}

	env, err := environment(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envLine, _ := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "trace": *traceFlag, "env": env})
	fmt.Println("env:", string(envLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// rng returns the workload's deterministic generator; salt separates the
// streams different parts of one workload draw from.
func rng(seed uint64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*0x9E3779B97F4A7C15) ^ salt))
}

// permuted returns a seeded permutation of xs.
func permuted(r *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], len(s)-1-k >= minBeyond
}

// samplesFor is the number of samples a q-quantile needs to be reportable.
func samplesFor(q float64) int {
	return int(math.Ceil(float64(minBeyond)/(1-q))) + 1
}

// memNow reads the allocation counters the exact-count guard anchors on.
func memNow() (mallocs, bytes uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc, ms.NumGC
}

// scratchDir makes a private scratch directory under the checkout's
// .bench_build, removed by the returned cleanup.
func scratchDir(root string) (string, func(), error) {
	base := filepath.Join(root, ".bench_build", "perfbench", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
