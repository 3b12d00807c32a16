package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := map[string]baselineEntry{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0},
	}
	for _, tc := range []struct {
		name     string
		measured map[string]baselineEntry
		fail     bool
		want     []string // substrings the report must contain
	}{
		{
			name: "within tolerance",
			measured: map[string]baselineEntry{
				"BenchmarkA": {NsPerOp: 240, AllocsPerOp: 10},
				"BenchmarkB": {NsPerOp: 90, AllocsPerOp: 0},
			},
			want: []string{"ok    A ", "ok    B "},
		},
		{
			name: "ns/op beyond tolerance",
			measured: map[string]baselineEntry{
				"BenchmarkA": {NsPerOp: 260, AllocsPerOp: 10},
				"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0},
			},
			fail: true,
			want: []string{"FAIL ns/op A "},
		},
		{
			name: "allocs/op beyond tolerance",
			measured: map[string]baselineEntry{
				"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 11},
				"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0},
			},
			fail: true,
			want: []string{"FAIL allocs/op A "},
		},
		{
			name: "new row passes",
			measured: map[string]baselineEntry{
				"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 10},
				"BenchmarkB": {NsPerOp: 100, AllocsPerOp: 0},
				"BenchmarkC": {NsPerOp: 5, AllocsPerOp: 1},
			},
			want: []string{"new   C ", "(no baseline)"},
		},
		{
			name: "gone row fails",
			measured: map[string]baselineEntry{
				"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 10},
			},
			fail: true,
			want: []string{"ok    A ", "gone  B ", "not measured"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var order []string
			for _, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"} {
				if _, ok := tc.measured[name]; ok {
					order = append(order, name)
				}
			}
			var out strings.Builder
			if got := compare(&out, base, tc.measured, order, 150, 5); got != tc.fail {
				t.Errorf("compare failed = %v, want %v\n%s", got, tc.fail, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}
