package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Custom b.ReportMetric columns sit between ns/op and B/op in a result
// line; they must not hide or shift the gated columns.
func TestParseBenchCustomMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	out := "goos: linux\n" +
		"BenchmarkPageLoad-2   \t     500\t   2243938 ns/op\t    41234 events/op\t  424456 B/op\t    3913 allocs/op\n" +
		"BenchmarkContention/flows100-2 \t 400\t 2710501 ns/op\t 27.13 ns/event\t 99876 events/op\t 12.00 peak-conns\t 69426 B/op\t 586 allocs/op\n" +
		"BenchmarkContention/flows100-2 \t 400\t 2710503 ns/op\t 27.14 ns/event\t 99876 events/op\t 12.00 peak-conns\t 69426 B/op\t 586 allocs/op\n" +
		"PASS\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, order := parseBench(path)
	want := map[string]baselineEntry{
		"BenchmarkPageLoad":            {NsPerOp: 2243938, BytesPerOp: 424456, AllocsPerOp: 3913},
		"BenchmarkContention/flows100": {NsPerOp: 2710501, BytesPerOp: 69426, AllocsPerOp: 586},
	}
	if len(order) != 2 || order[0] != "BenchmarkPageLoad" || order[1] != "BenchmarkContention/flows100" {
		t.Fatalf("order = %v", order)
	}
	if len(runs["BenchmarkContention/flows100"]) != 2 {
		t.Fatalf("flows100 runs = %v, want 2", runs["BenchmarkContention/flows100"])
	}
	for name, w := range want {
		if got := runs[name][0]; got != w {
			t.Errorf("%s parsed as %+v, want %+v", name, got, w)
		}
	}
}

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
