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
// workload mix on it, alone and with -compare against the baseline; an
// unknown kind fails the parse with an error listing the valid kinds.
func TestDefenseFlag(t *testing.T) {
	for _, kind := range defense.Kinds() {
		args := []string{"-defense", kind, "-workloads", "2Xnamd", "-instrs", "2000"}
		for _, mode := range [][]string{nil, {"-compare"}} {
			out, err := runOutput(t, append(mode, args...)...)
			if err != nil {
				t.Errorf("%v -defense %s: %v", mode, kind, err)
				continue
			}
			if !strings.Contains(out, "defense="+kind+" ") {
				t.Errorf("%v -defense %s: output names no defense=%s:\n%s", mode, kind, kind, out)
			}
			if mode != nil && !strings.Contains(out, "\n"+kind+" cycles") {
				t.Errorf("-compare -defense %s: no %q line:\n%s", kind, kind+" cycles", out)
			}
		}
	}
	fs := flag.NewFlagSet("timecache-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-defense", "partitioned"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(defense.Kinds(), ", ")) {
		t.Errorf("-defense partitioned: error %v, want one listing every kind", err)
	}
}
