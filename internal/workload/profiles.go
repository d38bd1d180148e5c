package workload

import "fmt"

// The profiles below are calibrated so that the baseline (no defense)
// simulation lands near the paper's Table II LLC MPKI for each workload.
// The controlling identity for the streaming model is
//
//	MPKI_LLC ≈ 1000 * MemRatio * StreamFrac / 8
//
// because a sequential 8-byte-stride stream over a region larger than the
// LLC misses once per 64-byte line. Code footprints follow the paper's
// qualitative notes: wrf and perlbench carry large shared instruction
// footprints (their first-access MPKI dominates Fig. 8); everything shares
// a libc image and kernel text.

// MB is a mebibyte, used by profile definitions.
const MB = 1 << 20

// KB is a kibibyte.
const KB = 1 << 10

// specProfiles models the SPEC2006 subset evaluated in the paper.
var specProfiles = map[string]Profile{
	"specrand":   {MemRatio: 0.20, StoreRatio: 0.3, StreamFrac: 0.0002, StreamBytes: 3 * MB, WSBytes: 64 * KB, CodeBytes: 64 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
	"lbm":        {MemRatio: 0.45, StoreRatio: 0.40, StreamFrac: 0.2494, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 96 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 32},
	"leslie3d":   {MemRatio: 0.45, StoreRatio: 0.30, StreamFrac: 0.3666, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 160 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 24},
	"gobmk":      {MemRatio: 0.30, StoreRatio: 0.25, StreamFrac: 0.0875, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 256 * KB, LibFrac: 0.05, LibDataFrac: 0.02, JumpEvery: 8},
	"libquantum": {MemRatio: 0.30, StoreRatio: 0.25, StreamFrac: 0.1560, StreamBytes: 3 * MB, WSBytes: 128 * KB, CodeBytes: 64 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 32},
	"wrf":        {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.1081, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 384 * KB, LibFrac: 0.06, LibDataFrac: 0.02, JumpEvery: 12},
	"calculix":   {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0048, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 192 * KB, LibFrac: 0.05, LibDataFrac: 0.02, JumpEvery: 16},
	"sjeng":      {MemRatio: 0.35, StoreRatio: 0.25, StreamFrac: 0.3835, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 128 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 8},
	"perlbench":  {MemRatio: 0.35, StoreRatio: 0.35, StreamFrac: 0.0233, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 512 * KB, LibFrac: 0.10, LibDataFrac: 0.02, JumpEvery: 10},
	"astar":      {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0129, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 96 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 12},
	"h264ref":    {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0127, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 192 * KB, LibFrac: 0.07, LibDataFrac: 0.02, JumpEvery: 14},
	"milc":       {MemRatio: 0.40, StoreRatio: 0.35, StreamFrac: 0.3294, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 128 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 24},
	"sphinx3":    {MemRatio: 0.35, StoreRatio: 0.25, StreamFrac: 0.0061, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 160 * KB, LibFrac: 0.05, LibDataFrac: 0.02, JumpEvery: 14},
	"namd":       {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0037, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 128 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
	"gromacs":    {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0067, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 128 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
	"zeusmp":     {MemRatio: 0.40, StoreRatio: 0.35, StreamFrac: 0.1736, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 192 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 24},
	"cactus":     {MemRatio: 0.45, StoreRatio: 0.35, StreamFrac: 0.3900, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 192 * KB, LibFrac: 0.03, LibDataFrac: 0.02, JumpEvery: 24},
}

// parsecProfiles models the 2-thread PARSEC runs (Fig. 9). Threads share
// one address space, so the streaming and working-set regions are shared
// data: cross-thread reuse at the LLC is what generates first accesses.
var parsecProfiles = map[string]Profile{
	"blackscholes": {MemRatio: 0.30, StoreRatio: 0.25, StreamFrac: 0.0012, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 96 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 20},
	"swaptions":    {MemRatio: 0.30, StoreRatio: 0.25, StreamFrac: 0.0002, StreamBytes: 3 * MB, WSBytes: 128 * KB, CodeBytes: 96 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
	"fluidanimate": {MemRatio: 0.35, StoreRatio: 0.35, StreamFrac: 0.0030, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 128 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
	"raytrace":     {MemRatio: 0.35, StoreRatio: 0.20, StreamFrac: 0.0065, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 160 * KB, LibFrac: 0.05, LibDataFrac: 0.02, JumpEvery: 12},
	"x264":         {MemRatio: 0.35, StoreRatio: 0.30, StreamFrac: 0.0189, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 256 * KB, LibFrac: 0.05, LibDataFrac: 0.02, JumpEvery: 12},
	"facesim":      {MemRatio: 0.40, StoreRatio: 0.35, StreamFrac: 0.0768, StreamBytes: 3 * MB, WSBytes: 256 * KB, CodeBytes: 256 * KB, LibFrac: 0.04, LibDataFrac: 0.02, JumpEvery: 16},
}

// Spec returns the named SPEC2006 profile.
func Spec(name string) (Profile, error) {
	p, ok := specProfiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown SPEC profile %q", name)
	}
	p.Name = name
	return p, nil
}

// Parsec returns the named PARSEC profile.
func Parsec(name string) (Profile, error) {
	p, ok := parsecProfiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown PARSEC profile %q", name)
	}
	p.Name = name
	return p, nil
}

// ParsecNames lists available PARSEC profiles (stable order, matching the
// paper's Table II).
func ParsecNames() []string {
	return []string{"fluidanimate", "raytrace", "blackscholes", "x264", "swaptions", "facesim"}
}

// Pair is one single-core two-process workload from Fig. 7 / Table II.
type Pair struct {
	Label string
	A, B  string
}

// SpecPairs returns the paper's Table II single-core workload list: fifteen
// same-benchmark pairs followed by nine mixed pairs.
func SpecPairs() []Pair {
	same := []string{
		"specrand", "lbm", "leslie3d", "gobmk", "libquantum", "wrf",
		"calculix", "sjeng", "perlbench", "astar", "h264ref", "milc",
		"sphinx3", "namd", "gromacs",
	}
	out := make([]Pair, 0, 24)
	for _, n := range same {
		out = append(out, Pair{Label: "2X" + n, A: n, B: n})
	}
	mixes := []Pair{
		{Label: "leslie+gobmk", A: "leslie3d", B: "gobmk"},
		{Label: "namd+lbm", A: "namd", B: "lbm"},
		{Label: "milc+zeusmp", A: "milc", B: "zeusmp"},
		{Label: "lbm+wrf", A: "lbm", B: "wrf"},
		{Label: "h264+sjeng", A: "h264ref", B: "sjeng"},
		{Label: "perl+wrf", A: "perlbench", B: "wrf"},
		{Label: "cactus+leslie", A: "cactus", B: "leslie3d"},
		{Label: "gobmk+astar", A: "gobmk", B: "astar"},
		{Label: "zeusmp+gromacs", A: "zeusmp", B: "gromacs"},
	}
	return append(out, mixes...)
}

// PaperTableII records the paper's measured numbers for comparison in
// EXPERIMENTS.md and the reproduce tool: normalized execution time and
// baseline/TimeCache LLC MPKI per workload.
var PaperTableII = map[string][3]float64{
	"2Xspecrand":     {0.9908, 0.0035, 0.0238},
	"2Xlbm":          {1.0039, 14.0349, 14.138},
	"2Xleslie3d":     {1.0751, 20.6163, 24.3556},
	"2Xgobmk":        {0.9961, 3.2832, 3.3361},
	"2Xlibquantum":   {1.0001, 5.8532, 5.8831},
	"2Xwrf":          {1.0135, 4.7286, 4.8964},
	"2Xcalculix":     {1.0548, 0.2099, 0.2672},
	"2Xsjeng":        {0.999, 16.7773, 16.8382},
	"2Xperlbench":    {1.0134, 1.021, 1.1582},
	"2Xastar":        {1.0107, 0.5654, 0.6144},
	"2Xh264ref":      {1.014, 0.555, 0.5953},
	"2Xmilc":         {1.0026, 16.4722, 16.5295},
	"2Xsphinx3":      {0.9982, 0.2648, 0.3118},
	"2Xnamd":         {1.0108, 0.1623, 0.2181},
	"2Xgromacs":      {0.9992, 0.292, 0.3703},
	"leslie+gobmk":   {0.9996, 22.3133, 22.3669},
	"namd+lbm":       {1.0579, 6.3764, 7.1136},
	"milc+zeusmp":    {1.0024, 12.5757, 12.6121},
	"lbm+wrf":        {1.0007, 9.7181, 9.7898},
	"h264+sjeng":     {1.0108, 9.0769, 9.1915},
	"perl+wrf":       {1.0143, 1.3984, 1.4626},
	"cactus+leslie":  {1.0034, 21.2749, 21.3736},
	"gobmk+astar":    {0.9994, 1.1053, 1.1469},
	"zeusmp+gromacs": {1.0035, 5.6352, 5.5924},
}

// PaperParsec records Fig. 9a/Table II numbers for the PARSEC runs.
var PaperParsec = map[string][3]float64{
	"fluidanimate": {1.029, 0.1317, 0.1583},
	"raytrace":     {1.0015, 0.2833, 0.2836},
	"blackscholes": {1.0013, 0.0466, 0.0511},
	"x264":         {1.0052, 0.8264, 0.8634},
	"swaptions":    {1.0025, 0.0051, 0.0053},
	"facesim":      {1.0086, 3.3585, 3.3589},
}
