package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenContention is the determinism-suite contention config: the exact
// artifact pinned in testdata/contention_pr8.golden before the engine grew
// LPT placement and work stealing.
func goldenContention() ContentionConfig {
	cfg := DefaultContention()
	cfg.Flows = 24
	cfg.BulkBytes = 64 << 10
	return cfg
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return string(b)
}

// TestContentionGoldenAcrossSchedulingModes pins the contention artifact to
// the bytes captured before the work-stealing scheduler existed, across
// every scheduling mode the engine has: hash placement (cold) and LPT
// placement (oracle-primed), with stealing at several shard counts.
// Placement is a performance knob; none of these may move a byte.
func TestContentionGoldenAcrossSchedulingModes(t *testing.T) {
	want := readGolden(t, "contention_pr8.golden")
	base := goldenContention()

	run := func(name string, cfg ContentionConfig) {
		res := Contention(cfg)
		if got := res.String(); got != want {
			t.Errorf("%s: contention artifact differs from pre-stealing golden\n got: %q\nwant: %q",
				name, clip(got), clip(want))
		}
	}
	for _, shards := range []int{1, 2, 8} {
		cfg := base
		cfg.Shards = shards
		run("steal-cold", cfg)
	}
	// Oracle-primed LPT run: profile from a cold run feeds the next one.
	cold := base
	cold.Shards = 4
	profiled := Contention(cold)
	primed := base
	primed.Shards = 4
	primed.Profile = profiled.Placement.Profile()
	run("steal-primed", primed)
}

// TestDynamicsGoldenAcrossSchedulingModes does the same for the chaos
// scheduler grid: scripted fault transcripts and queue epochs are pinned to
// the pre-stealing bytes under hash placement with stealing.
// (The golden file was re-captured once after duplicate-ACK counting was
// tightened to RFC 6675 — the chaos grid's loss epochs exercise fast
// retransmit, so its transcript moved with the fix.)
func TestDynamicsGoldenAcrossSchedulingModes(t *testing.T) {
	want := readGolden(t, "dynamics_pr8.golden")

	run := func(name string, cfg DynamicsConfig) {
		res := Dynamics(cfg)
		if got := res.String(); got != want {
			t.Errorf("%s: dynamics artifact differs from pre-stealing golden\n got: %q\nwant: %q",
				name, clip(got), clip(want))
		}
	}
	for _, shards := range []int{1, 2, 8} {
		cfg := DefaultDynamics()
		cfg.Shards = shards
		run("steal-cold", cfg)
	}
}

// clip truncates a long artifact for failure output.
func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}
