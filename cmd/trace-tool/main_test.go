package main

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"timecache/internal/defense"
)

// TestReplayDefenseFlag: replay's -defense accepts every registry kind and
// replays the trace on it; an unknown kind fails the parse with an error
// listing the valid kinds.
func TestReplayDefenseFlag(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "namd.trace")
	if err := record([]string{"-workload", "namd", "-instrs", "2000", "-o", trace}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range defense.Kinds() {
		if err := replay(flag.NewFlagSet("replay", flag.ContinueOnError), []string{"-i", trace, "-defense", kind}); err != nil {
			t.Errorf("-defense %s: %v", kind, err)
		}
	}
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := replay(fs, []string{"-i", trace, "-defense", "ftm2"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(defense.Kinds(), ", ")) {
		t.Errorf("-defense ftm2: error %v, want one listing every kind", err)
	}
}
