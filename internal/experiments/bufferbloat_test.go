package experiments

import (
	"testing"

	"repro/internal/netem"
)

// bufferbloatTestConfig is the grid the tests run: a shorter bulk flow
// keeps cells quick, but the full head start stays — the ordering claims
// are about the AQM's converged behavior, and a short head start would
// measure its convergence transient instead.
func bufferbloatTestConfig() BufferbloatConfig {
	cfg := DefaultBufferbloat()
	cfg.BulkBytes = 8 << 20
	return cfg
}

// TestBufferbloatOrdering pins the experiment's qualitative claims, per
// link: the deep droptail buffer shows the worst p95 queueing delay
// (bufferbloat); CoDel on the same deep buffer holds the standing queue —
// the mean sojourn, which is what the control law regulates; transient
// bursts are tolerated by design — within a small band around its target,
// dropping only by control law (never tail); the shallow droptail bounds
// delay by construction; and the ECN cells resolve every control-law
// firing by marking — zero drops of any kind on the all-ECT traffic.
func TestBufferbloatOrdering(t *testing.T) {
	cfg := bufferbloatTestConfig()
	res := Bufferbloat(cfg)
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PLTms <= 0 {
			t.Fatalf("%s/%s: page load did not complete (PLT %v)", row.Link, row.Qdisc, row.PLTms)
		}
		if row.BulkBytes <= 0 {
			t.Fatalf("%s/%s: bulk flow moved nothing", row.Link, row.Qdisc)
		}
		f := row.Fairness
		if f.Flows < 2 {
			t.Fatalf("%s/%s: fairness saw %d flows, want the bulk flow plus the page's", row.Link, row.Qdisc, f.Flows)
		}
		if f.BulkBytes <= f.WebBytes {
			t.Errorf("%s/%s: bulk attribution %d bytes not dominant over web %d", row.Link, row.Qdisc, f.BulkBytes, f.WebBytes)
		}
		if f.Jain <= 0.5 || f.Jain > 1 {
			t.Errorf("%s/%s: Jain index %.3f outside (0.5, 1]", row.Link, row.Qdisc, f.Jain)
		}
	}
	for _, link := range []string{"const12", "cellular"} {
		var deepRow, shallowRow, codelRow, codelECNRow, pieRow, pieECNRow, fqRow, fqECNRow BufferbloatRow
		for _, row := range res.Rows {
			if row.Link != link {
				continue
			}
			switch {
			case row.Qdisc.Kind == netem.QdiscCoDel && row.Qdisc.ECN:
				codelECNRow = row
			case row.Qdisc.Kind == netem.QdiscCoDel:
				codelRow = row
			case row.Qdisc.Kind == netem.QdiscPIE && row.Qdisc.ECN:
				pieECNRow = row
			case row.Qdisc.Kind == netem.QdiscPIE:
				pieRow = row
			case row.Qdisc.Kind == netem.QdiscFQCoDel && row.Qdisc.ECN:
				fqECNRow = row
			case row.Qdisc.Kind == netem.QdiscFQCoDel:
				fqRow = row
			case row.Qdisc.Packets == bloatDeepPackets:
				deepRow = row
			default:
				shallowRow = row
			}
		}
		// The marking cells: the all-ECT traffic must never lose a packet
		// to the AQM — the control law resolves every firing with a mark.
		for _, ecnRow := range []BufferbloatRow{codelECNRow, pieECNRow, fqECNRow} {
			if ecnRow.AQMDrops != 0 {
				t.Errorf("%s/%s: marking cell AQM-dropped %d", link, ecnRow.Qdisc, ecnRow.AQMDrops)
			}
			if ecnRow.TailDrops != 0 {
				t.Errorf("%s/%s: marking cell tail-dropped %d", link, ecnRow.Qdisc, ecnRow.TailDrops)
			}
			if ecnRow.AQMMarks == 0 {
				t.Errorf("%s/%s: marking cell never marked", link, ecnRow.Qdisc)
			}
			if ecnRow.Fairness.BulkMarks == 0 {
				t.Errorf("%s/%s: no marks attributed to the bulk flow", link, ecnRow.Qdisc)
			}
		}
		// Drop-mode PIE exercises its law by dropping, never marking.
		if pieRow.AQMDrops == 0 {
			t.Errorf("%s: pie never exercised its control law", link)
		}
		if pieRow.AQMMarks != 0 {
			t.Errorf("%s: drop-mode pie marked %d", link, pieRow.AQMMarks)
		}
		if deepRow.P95SojournMs <= codelRow.P95SojournMs || deepRow.P95SojournMs <= shallowRow.P95SojournMs {
			t.Errorf("%s: deep droptail p95 %.1fms not the worst (codel %.1f, shallow %.1f)",
				link, deepRow.P95SojournMs, codelRow.P95SojournMs, shallowRow.P95SojournMs)
		}
		// "Target band": within an order of magnitude of the 5 ms target.
		// The gap above target is slow-start bursts (the bulk flow's and
		// the page's), which CoDel tolerates by design — it controls the
		// standing queue, not transients; the contrast is with droptail,
		// which sustains buffer-bound delay (hundreds of ms here).
		targetMs := netem.DefaultCoDelTarget.Milliseconds()
		if codelRow.MeanSojournMs > 10*targetMs {
			t.Errorf("%s: codel mean sojourn %.1fms outside the target band (target %.0fms)",
				link, codelRow.MeanSojournMs, targetMs)
		}
		if codelRow.MeanSojournMs >= deepRow.MeanSojournMs/4 {
			t.Errorf("%s: codel mean sojourn %.1fms not well below deep droptail %.1fms",
				link, codelRow.MeanSojournMs, deepRow.MeanSojournMs)
		}
		if codelRow.AQMDrops == 0 {
			t.Errorf("%s: codel never exercised its control law", link)
		}
		if codelRow.TailDrops != 0 {
			t.Errorf("%s: codel tail-dropped %d on a deep buffer", link, codelRow.TailDrops)
		}
		if deepRow.AQMDrops != 0 || shallowRow.AQMDrops != 0 {
			t.Errorf("%s: droptail rows report AQM drops", link)
		}
		if shallowRow.TailDrops == 0 {
			t.Errorf("%s: shallow droptail never dropped under contention", link)
		}
		// Flow queueing versus plain codel, asserted per link in both drop
		// and marking modes. What RFC 8290 buys on this workload:
		//
		//   - isolation: the web class's mean sojourn falls well below
		//     codel's (web packets wait in their own CoDel'd buckets, never
		//     behind the bulk flow's standing queue), and the whole grid's
		//     mean sojourn is the lowest of any AQM cell;
		//   - tails: on the constant link the typical web flow's p95 drops
		//     below codel's. On the cellular link the shared queue flushes
		//     slow-start bursts at the trace's 20 Mbit/s peaks while a DRR
		//     share caps each bucket's drain, so fq's web tail is allowed a
		//     bounded regression there — the isolation is what it pays for;
		//   - fairness: the byte-share Jain index must stay within a small
		//     band of codel's. fq cannot be asked to exceed it: the shared
		//     queue's burst-induced delay spikes fire spurious RTOs (min RTO
		//     200 ms, codel web p95 ~260 ms), and the ~10% duplicate web
		//     bytes those deliver count toward codel's Jain — the zero-drop
		//     codel-ecn cell moves ~150 KB more "web" bytes than the
		//     zero-drop fq-ecn cell carrying the identical page. A
		//     delivered-bytes index rewards exactly the pathology flow
		//     queueing removes, so the assertion is no-regression, not
		//     dominance.
		for _, pair := range []struct{ fq, ref BufferbloatRow }{
			{fqRow, codelRow}, {fqECNRow, codelECNRow},
		} {
			if pair.fq.Fairness.Jain < pair.ref.Fairness.Jain-0.02 {
				t.Errorf("%s: %s Jain %.4f regressed below %s's %.4f band", link,
					pair.fq.Qdisc, pair.fq.Fairness.Jain, pair.ref.Qdisc, pair.ref.Fairness.Jain)
			}
			if pair.fq.Fairness.WebMeanQMs >= pair.ref.Fairness.WebMeanQMs {
				t.Errorf("%s: %s web mean sojourn %.1fms not below %s's %.1fms", link,
					pair.fq.Qdisc, pair.fq.Fairness.WebMeanQMs, pair.ref.Qdisc, pair.ref.Fairness.WebMeanQMs)
			}
			if pair.fq.MeanSojournMs >= pair.ref.MeanSojournMs {
				t.Errorf("%s: %s mean sojourn %.1fms not below %s's %.1fms", link,
					pair.fq.Qdisc, pair.fq.MeanSojournMs, pair.ref.Qdisc, pair.ref.MeanSojournMs)
			}
			bound := pair.ref.Fairness.WebP95QMs
			if link == "cellular" {
				bound *= 1.25
			}
			if pair.fq.Fairness.WebP95QMs >= bound {
				t.Errorf("%s: %s web p95 %.1fms not below bound %.1fms (%s's %.1fms)", link,
					pair.fq.Qdisc, pair.fq.Fairness.WebP95QMs, bound, pair.ref.Qdisc, pair.ref.Fairness.WebP95QMs)
			}
		}
		if fqRow.AQMDrops == 0 {
			t.Errorf("%s: fq_codel never exercised its per-bucket law", link)
		}
		if fqRow.MeanSojournMs >= deepRow.MeanSojournMs/4 {
			t.Errorf("%s: fq_codel mean sojourn %.1fms not well below deep droptail %.1fms",
				link, fqRow.MeanSojournMs, deepRow.MeanSojournMs)
		}
	}
}

// TestBufferbloatDeterministicAcrossParallelism: the bufferbloat artifact
// — codel control law included — must be byte-identical at any engine
// shard count. (TestParallelDeterminism also covers this artifact; this
// is the fast standalone check.)
func TestBufferbloatDeterministicAcrossParallelism(t *testing.T) {
	cfg := bufferbloatTestConfig()
	cfg.BulkBytes = 2 << 20
	cfg.Shards = 1
	want := Bufferbloat(cfg).String()
	for _, n := range []int{2, 8} {
		cfg.Shards = n
		if got := Bufferbloat(cfg).String(); got != want {
			t.Fatalf("artifact differs at %d shards:\n%s\nvs\n%s", n, got, want)
		}
	}
}
