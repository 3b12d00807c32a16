package main

import (
	"math"
	"testing"

	"repro/internal/browser"
	"repro/internal/netem"
	"repro/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, {10000, 99.9}, {9999, 99.5}, {2000, 99.5}, {1000, 99},
		{500, 98}, {200, 95}, {160, 90}, {102, 90}, {99, 80}, {60, 80},
		{40, 75}, {39, 50}, {20, 50}, {1, 50},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); tc.n >= 20 && float64(tc.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond it", tc.n, p)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {90, 4.6}, {25, 2}, {80, 4.2},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: %g, want 7", got)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPackageOf(t *testing.T) {
	for file, want := range map[string]string{
		"repro@v0.0.0/internal/sim/sim.go":              "sim",
		"repro@v0.0.0/internal/tcpsim/conn.go (inline)": "tcpsim",
		"repro/internal/netem/delay.go":                 "netem",
		"repro/perfbench/wrap.go":                       "bench",
		"repro/bench_test.go":                           "other",
		"runtime/memmove_amd64.s":                       "runtime",
		"runtime/malloc.go (inline)":                    "runtime",
		"internal/runtime/maps/group.go":                "runtime",
		"internal/poll/fd_unix.go":                      "other",
		"sort/zsortfunc.go":                             "other",
		"<autogenerated>":                               "other",
		"reprox/internal/sim/sim.go":                    "other",
	} {
		if got := packageOf(file); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", file, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	text := `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      900ms 90.00%  repro@v0.0.0/internal/sim/sim.go
     100ms 10.00% 50.00%      100ms 10.00%  repro@v0.0.0/internal/sim/sim.go (inline)
     300ms 30.00% 80.00%      300ms 30.00%  runtime/memmove_amd64.s
     150ms 15.00% 95.00%      150ms 15.00%  repro@v0.0.0/internal/tcpsim/conn.go
      50ms  5.00%   100%       50ms  5.00%  sort/sort.go
`
	got, err := parsePprofTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.5, "runtime": 0.3, "tcpsim": 0.15, "other": 0.05}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s share = %g, want %g", k, got[k], v)
		}
	}
	if _, err := parsePprofTop("no table here\n"); err == nil {
		t.Error("output without a table: want an error")
	}
}

func TestDigest(t *testing.T) {
	load := func(plt sim.Time, status int) uint64 {
		d := newDigest()
		digestLoad(&d, browser.Result{PLT: plt, Resources: 1, Bytes: 10,
			Timings: []browser.ResourceTiming{{URL: "http://a/", Done: plt, Status: status, Bytes: 10}}})
		return d.sum()
	}
	if load(5, 200) != load(5, 200) {
		t.Error("equal results give different digests")
	}
	if load(5, 200) == load(6, 200) || load(5, 200) == load(5, 404) {
		t.Error("a changed virtual result kept its digest")
	}
	if digestAll([]uint64{1, 2}) == digestAll([]uint64{2, 1}) {
		t.Error("workload digest ignores op order")
	}
	if digestAll([]uint64{1}) == digestAll([]uint64{1, 0}) {
		t.Error("workload digest ignores op count")
	}
}

// selfTimes computes each stored span's self time from the records alone:
// its duration minus the durations of its stored children. It is the
// reference for the online accounting in lane.end.
func selfTimes(l *lane) map[spanID]int64 {
	self := map[spanID]int64{}
	for i, s := range l.spans {
		id := spanID(l.num<<32 | uint64(i+1))
		self[id] += s.end - s.start
		if s.parent != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

func TestLaneSelfTime(t *testing.T) {
	tr := newTracer(1)
	var now int64
	l := tr.lanes[0]
	l.clock = func() int64 { return now }
	load, send, sink := tr.name("experiments.Load"), tr.name("netem.Send/x/up"), tr.name("nsim.sink/x/up")

	root := l.begin(load) // 0..100
	now = 10
	l.begin(send) // 10..30, with a 5 ns sink inside
	now = 20
	l.begin(sink)
	now = 25
	if dur, self := l.end(); dur != 5 || self != 5 {
		t.Errorf("sink: dur %d self %d, want 5 5", dur, self)
	}
	now = 30
	if dur, self := l.end(); dur != 20 || self != 15 {
		t.Errorf("send: dur %d self %d, want 20 15", dur, self)
	}
	now = 60
	l.begin(sink) // 60..70
	now = 70
	l.end()
	now = 100
	if dur, self := l.end(); dur != 100 || self != 70 {
		t.Errorf("load: dur %d self %d, want 100 70", dur, self)
	}
	if s := tr.stat("nsim.sink"); s.count != 2 || s.totalNs != 15 || s.selfNs != 15 {
		t.Errorf("sink stat %+v", s)
	}
	if s := tr.stat("netem.Send"); s.count != 1 || s.selfNs != 15 {
		t.Errorf("send stat %+v", s)
	}
	ref := selfTimes(l)
	if ref[root] != 70 {
		t.Errorf("offline self time of the load span %d, want 70", ref[root])
	}
	var online, offline int64
	for _, name := range []string{"experiments.Load", "netem.Send", "nsim.sink"} {
		online += tr.stat(name).selfNs
	}
	for _, v := range ref {
		offline += v
	}
	if online != offline || online != 100 {
		t.Errorf("self times sum online %d offline %d, want 100 (the root's duration)", online, offline)
	}
	other := newTracer(2)
	if id := other.lanes[1].beginUnder(load, root); id>>32 != 1 || other.lanes[1].spans[0].parent != root {
		t.Errorf("cross-lane span id %x parent %x", uint64(id), uint64(other.lanes[1].spans[0].parent))
	}
}

func TestTracedBoxPassthrough(t *testing.T) {
	loop := sim.NewLoop()
	tr := newTracer(1)
	b := &tracedBox{inner: netem.NewDelayBox(loop, sim.Millisecond), lane: tr.lanes[0],
		send: tr.name("netem.Send/d/up"), sink: tr.name("nsim.sink/d/up")}
	var got []int64
	b.SetSink(func(p *netem.Packet) { got = append(got, p.Seq) })
	b.SetBatchSink(func(ps []*netem.Packet) {
		for _, p := range ps {
			got = append(got, p.Seq)
		}
	})
	b.Send(&netem.Packet{Size: 100, Seq: 1})
	b.SendBatch([]*netem.Packet{{Size: 100, Seq: 2}, {Size: 100, Seq: 3}})
	loop.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [1 2 3]", got)
	}
	if b.pkts != 3 || b.calls != 2 || b.sinkCalls == 0 {
		t.Errorf("pkts %d calls %d sinkCalls %d", b.pkts, b.calls, b.sinkCalls)
	}
	if st := b.Stats(); st.Arrived != 3 || st.Delivered != 3 {
		t.Errorf("inner stats %+v", st)
	}
	if s := tr.stat("netem.Send"); s.count != 2 {
		t.Errorf("send spans %d, want 2", s.count)
	}
}
