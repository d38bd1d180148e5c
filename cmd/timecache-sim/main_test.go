package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"timecache/internal/defense"
)

// TestDefenseFlag: -defense accepts every registry kind and runs the
// workload mix on it; an unknown kind fails the parse with an error listing
// the valid kinds.
func TestDefenseFlag(t *testing.T) {
	for _, kind := range defense.Kinds() {
		args := []string{"-defense", kind, "-workloads", "2Xnamd", "-instrs", "2000"}
		if err := run(flag.NewFlagSet("timecache-sim", flag.ContinueOnError), args); err != nil {
			t.Errorf("-defense %s: %v", kind, err)
		}
	}
	fs := flag.NewFlagSet("timecache-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-defense", "partitioned"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(defense.Kinds(), ", ")) {
		t.Errorf("-defense partitioned: error %v, want one listing every kind", err)
	}
}
