package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timecache/internal/defense"
)

// TestDefenseFlag: -defense accepts every registry kind and runs the
// program on it; an unknown kind fails the parse with an error listing the
// valid kinds.
func TestDefenseFlag(t *testing.T) {
	src := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(src, []byte("movi r1, 42\nsys 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, kind := range defense.Kinds() {
		if err := run(flag.NewFlagSet("asm-run", flag.ContinueOnError), []string{"-defense", kind, "-n", "2", src}); err != nil {
			t.Errorf("-defense %s: %v", kind, err)
		}
	}
	fs := flag.NewFlagSet("asm-run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := run(fs, []string{"-defense", "baseline", src})
	if err == nil || !strings.Contains(err.Error(), strings.Join(defense.Kinds(), ", ")) {
		t.Errorf("-defense baseline: error %v, want one listing every kind", err)
	}
}
