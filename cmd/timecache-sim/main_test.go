package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"timecache/internal/defense"
)

// runOutput runs the command on args and returns what it printed.
func runOutput(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run(flag.NewFlagSet("timecache-sim", flag.ContinueOnError), args)
	os.Stdout = stdout
	w.Close()
	return string(<-out), err
}

// TestDefenseFlag: -defense accepts every registry kind and runs the
// workload mix on it alone, and with -compare runs it as the defended leg
// of a table2 job against the baseline; an unknown kind fails the parse
// with an error listing the valid kinds.
func TestDefenseFlag(t *testing.T) {
	for _, kind := range defense.Kinds() {
		args := []string{"-defense", kind, "-workloads", "2Xnamd", "-instrs", "2000"}
		out, err := runOutput(t, args...)
		if err != nil {
			t.Errorf("-defense %s: %v", kind, err)
		} else if !strings.Contains(out, "defense="+kind+" ") {
			t.Errorf("-defense %s: output names no defense=%s:\n%s", kind, kind, out)
		}
		out, err = runOutput(t, append([]string{"-compare"}, args...)...)
		if err != nil {
			t.Errorf("-compare -defense %s: %v", kind, err)
			continue
		}
		title, table, _ := strings.Cut(out, "\n")
		if !strings.Contains(title, " "+kind+" vs none ") {
			t.Errorf("-compare -defense %s: title %q names no %s vs none", kind, title, kind)
		}
		if !strings.Contains(table, "\n2Xnamd ") {
			t.Errorf("-compare -defense %s: no 2Xnamd row:\n%s", kind, out)
		}
	}
	fs := flag.NewFlagSet("timecache-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-defense", "partitioned"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(defense.Kinds(), ", ")) {
		t.Errorf("-defense partitioned: error %v, want one listing every kind", err)
	}
}

// slowdown runs -matrix on 2Xgobmk under timecache at LLC size llc and
// returns the timecache row's slowdown cell.
func slowdown(t *testing.T, llc string) string {
	t.Helper()
	out, err := runOutput(t, "-matrix", "-workloads", "2Xgobmk", "-defenses", "none,timecache",
		"-attacks", "smt", "-attack-bits", "4", "-instrs", "5000", "-llc", llc)
	if err != nil {
		t.Fatalf("-matrix -llc %s: %v", llc, err)
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == defense.TimeCache {
			return f[2]
		}
	}
	t.Fatalf("-matrix -llc %s: no timecache row:\n%s", llc, out)
	return ""
}

// TestMatrixHonorsLLC: -matrix runs its slowdown pairs at the -llc size, so
// a small LLC and the default one give different slowdowns.
func TestMatrixHonorsLLC(t *testing.T) {
	if small, large := slowdown(t, "262144"), slowdown(t, "2097152"); small == large {
		t.Errorf("timecache slowdown on 2Xgobmk is %s at both -llc 256K and 2M", small)
	}
}

// TestCoresFlag: -cores below 1 is an error in every mode, and -compare,
// like -llc-sweep, runs each pair on one core only.
func TestCoresFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-cores", "0"},
		{"-cores", "-1"},
		{"-compare", "-cores", "0"},
		{"-compare", "-cores", "2"},
		{"-llc-sweep", "512K", "-cores", "2"},
	} {
		if _, err := runOutput(t, append(args, "-instrs", "2000")...); err == nil || !strings.Contains(err.Error(), "-cores") {
			t.Errorf("%v: error %v, want a -cores error", args, err)
		}
	}
}
