package attack

import (
	"testing"

	"timecache/internal/defense"
	"timecache/internal/machine"
)

// TestLLCOccupancyChannel pins the cache-occupancy channel's shape: it needs
// no shared memory, so it leaks through the insecure baseline and straight
// through TimeCache (whose s-bits only hide line *reuse*), while way
// partitioning — which caps the attacker's observable occupancy — kills it.
func TestLLCOccupancyChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base, err := RunLLCOccupancy(machine.Config{}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Errorf("baseline occupancy accuracy = %.3f, want >= 0.9", base.Accuracy)
	}
	tc, err := RunLLCOccupancy(machine.Config{Defense: defense.TimeCache}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Accuracy < 0.9 {
		t.Errorf("timecache occupancy accuracy = %.3f, want >= 0.9 (occupancy is outside the s-bit threat model)", tc.Accuracy)
	}
	part, err := RunLLCOccupancy(machine.Config{Defense: defense.DAWGLite}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if part.Accuracy > 0.6 {
		t.Errorf("partitioned occupancy accuracy = %.3f, want chance level <= 0.6", part.Accuracy)
	}
}
