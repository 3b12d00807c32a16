package experiments

import (
	"fmt"
	"strings"
	"time"
)

// ScalingConfig declares the engine-scaling smoke: the contention grid run
// at 1 shard and at Shards shards, each arm repeated Reps times, every
// repetition a cold run on a fresh engine. Wall-clock speedup is
// host-dependent; the skew, steal and utilization columns are the
// machine-independent evidence of how far the deal and stealing level the
// load.
type ScalingConfig struct {
	// Contention is the per-cell workload; its Shards field is overridden
	// per arm.
	Contention ContentionConfig
	// Shards is the parallel arm's lane count (<= 0: GOMAXPROCS).
	Shards int
	// Reps is the repetitions per arm (default 3).
	Reps int
}

// DefaultScaling returns the smoke configuration: the default contention
// grid at 200 flows, 1-vs-4 shards, three repetitions.
func DefaultScaling() ScalingConfig {
	cfg := DefaultContention()
	cfg.Flows = 200
	return ScalingConfig{Contention: cfg, Shards: 4, Reps: 3}
}

// ScalingRep is one repetition of one arm.
type ScalingRep struct {
	Shards      int
	Wall        time.Duration
	PlannedSkew float64
	PostSkew    float64
	Steals      int
	Utilization float64
}

// ScalingResult is both arms plus the cross-arm verdict.
type ScalingResult struct {
	Flows int
	Reps1 []ScalingRep
	RepsN []ScalingRep
	// Speedup is the best single-shard wall over the best parallel wall.
	Speedup float64
	// ArtifactsMatch records whether every repetition of both arms
	// rendered the byte-identical contention artifact — the determinism
	// contract checked in the smoke itself.
	ArtifactsMatch bool
}

// Scaling runs both arms and compares their artifacts.
func Scaling(cfg ScalingConfig) ScalingResult {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	res := ScalingResult{Flows: cfg.Contention.Flows, ArtifactsMatch: true}
	var golden string
	arm := func(shards int) []ScalingRep {
		reps := make([]ScalingRep, 0, cfg.Reps)
		for i := 0; i < cfg.Reps; i++ {
			c := cfg.Contention
			c.Shards = shards
			start := time.Now()
			out := Contention(c)
			wall := time.Since(start)
			if golden == "" {
				golden = out.String()
			} else if out.String() != golden {
				res.ArtifactsMatch = false
			}
			p := out.Placement
			reps = append(reps, ScalingRep{
				Shards: len(p.Shards), Wall: wall,
				PlannedSkew: p.PlannedEventSkew(), PostSkew: p.EventSkew(),
				Steals: p.Steals(), Utilization: p.Utilization(),
			})
		}
		return reps
	}
	res.Reps1 = arm(1)
	res.RepsN = arm(cfg.Shards)
	best := func(reps []ScalingRep) time.Duration {
		b := reps[0].Wall
		for _, r := range reps[1:] {
			if r.Wall < b {
				b = r.Wall
			}
		}
		return b
	}
	w1, wn := best(res.Reps1), best(res.RepsN)
	if wn > 0 {
		res.Speedup = float64(w1) / float64(wn)
	}
	return res
}

// String renders the per-repetition table and the speedup verdict.
func (r ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine scaling smoke: %d-flow contention grid, shards 1 vs %d\n",
		r.Flows, r.RepsN[len(r.RepsN)-1].Shards)
	fmt.Fprintf(&b, "  %6s %4s %10s %8s %8s %7s %5s\n",
		"shards", "rep", "wall", "planskew", "postskew", "steals", "util")
	row := func(i int, rep ScalingRep) {
		fmt.Fprintf(&b, "  %6d %4d %10s %8.2f %8.2f %7d %5.2f\n",
			rep.Shards, i, rep.Wall.Round(time.Millisecond),
			rep.PlannedSkew, rep.PostSkew, rep.Steals, rep.Utilization)
	}
	for i, rep := range r.Reps1 {
		row(i, rep)
	}
	for i, rep := range r.RepsN {
		row(i, rep)
	}
	fmt.Fprintf(&b, "  speedup (best wall, 1 -> %d shards): %.2fx\n",
		r.RepsN[len(r.RepsN)-1].Shards, r.Speedup)
	if r.ArtifactsMatch {
		b.WriteString("  artifacts: byte-identical across both arms and every repetition\n")
	} else {
		b.WriteString("  artifacts: MISMATCH — determinism contract violated\n")
	}
	return b.String()
}
