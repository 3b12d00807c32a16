package experiments

import (
	"fmt"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// bufferbloatGoldenPR5 pins every measurement of the pre-fq_codel
// bufferbloat grid (the 12 droptail/codel/pie cells, captured before
// FQCoDel existed) on a reduced workload. Growing the grid — and switching
// the per-flow telemetry from TrackFlows to TrackFlowSojourns — must not
// move a single digit in any pre-existing cell: cell seeds derive from the
// cell's (site, shell) labels, not its index, so appended cells cannot
// reshuffle established ones, and the sojourn histograms only record.
// A diff here means fq_codel's introduction perturbed settled physics.
// Re-pinned once since capture: tightening duplicate-ACK counting to
// RFC 6675's definition (only acks carrying previously unknown SACK
// coverage count toward fast retransmit) shifted retransmit timing in
// the lossy cells; the capture below is the post-fix transcript.
var bufferbloatGoldenPR5 = []string{
	"const12|droptail-600p|plt=2457.1|p95=573.4000000000001|mean=221.35751543505305|tail=84|aqm=0|mark=0|maxq=600|bulk=2097152|flows=53|fb=2257384|fw=1481195|bq=275.856581|wq=154.168716|bd=84|wd=0|bm=0|wm=0|jain=0.958677",
	"const12|droptail-32p|plt=2180.44|p95=32|mean=8.480938099653715|tail=355|aqm=0|mark=0|maxq=32|bulk=2097152|flows=52|fb=2238752|fw=1346299|bq=4.824532|wq=13.440125|bd=101|wd=254|bm=0|wm=0|jain=0.941646",
	"const12|codel-600p|plt=1764.1|p95=210.94999999999982|mean=61.36032483752861|tail=0|aqm=42|mark=0|maxq=234|bulk=2097152|flows=48|fb=2159252|fw=1440123|bq=28.749133|wq=101.273767|bd=12|wd=30|bm=0|wm=0|jain=0.961615",
	"const12|codel-ecn-600p|plt=1748.1|p95=268|mean=77.14842888096132|tail=0|aqm=0|mark=41|maxq=288|bulk=2097152|flows=53|fb=2154752|fw=1481155|bq=26.127777|wq=137.221803|bd=0|wd=0|bm=7|wm=34|jain=0.966817",
	"const12|pie-600p|plt=4881.7|p95=338|mean=90.02407739519651|tail=0|aqm=248|mark=0|maxq=370|bulk=2097152|flows=44|fb=2480252|fw=1344359|bq=110.649876|wq=58.697818|bd=116|wd=132|bm=0|wm=0|jain=0.918943",
	"const12|pie-ecn-600p|plt=2578.1|p95=408|mean=132.02195608782435|tail=0|aqm=0|mark=990|maxq=471|bulk=2097152|flows=36|fb=2154752|fw=1325799|bq=206.00625|wq=31.986854|bd=0|wd=0|bm=520|wm=470|jain=0.946321",
	"cellular|droptail-600p|plt=2502.44|p95=411|mean=231.86446601941748|tail=0|aqm=0|mark=0|maxq=598|bulk=2097152|flows=53|fb=2154752|fw=1377884|bq=275.367361|wq=176.671365|bd=0|wd=0|bm=0|wm=0|jain=0.953870",
	"cellular|droptail-32p|plt=1407.1|p95=47|mean=10.612230639544025|tail=264|aqm=0|mark=0|maxq=32|bulk=2097152|flows=51|fb=2156252|fw=1344839|bq=11.57807|wq=9.350421|bd=79|wd=185|bm=0|wm=0|jain=0.949025",
	"cellular|codel-600p|plt=1798.1|p95=139|mean=34.144446066791744|tail=0|aqm=28|mark=0|maxq=193|bulk=2097152|flows=46|fb=2160752|fw=1516128|bq=17.714681|wq=53.574896|bd=10|wd=18|bm=0|wm=0|jain=0.970180",
	"cellular|codel-ecn-600p|plt=1362.32|p95=104|mean=26.617460317460317|tail=0|aqm=0|mark=26|maxq=143|bulk=2097152|flows=37|fb=2154752|fw=1343788|bq=15.804166|wq=41.035185|bd=0|wd=0|bm=10|wm=16|jain=0.949008",
	"cellular|pie-600p|plt=1936.78|p95=266|mean=32.55556277777777|tail=0|aqm=161|mark=0|maxq=213|bulk=2097152|flows=47|fb=2157752|fw=1362439|bq=54.239551|wq=4.258448|bd=36|wd=125|bm=0|wm=0|jain=0.951435",
	"cellular|pie-ecn-600p|plt=2166.1|p95=277|mean=42.76463560334528|tail=0|aqm=0|mark=382|maxq=243|bulk=2097152|flows=39|fb=2154752|fw=1326039|bq=66.959027|wq=10.23436|bd=0|wd=0|bm=168|wm=214|jain=0.946358",
}

// TestBufferbloatGoldenPR5Cells re-runs the reduced grid and compares every
// pre-fq_codel cell, field by formatted field, against the pinned capture.
// The fq_codel rows are excluded (they did not exist when the capture was
// made); everything else must be byte-identical.
func TestBufferbloatGoldenPR5Cells(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid run")
	}
	cfg := DefaultBufferbloat()
	cfg.BulkBytes = 2 << 20
	cfg.HeadStart = 500 * sim.Millisecond
	cfg.Shards = 2
	res := Bufferbloat(cfg)
	var got []string
	for _, row := range res.Rows {
		if row.Qdisc.Kind == netem.QdiscFQCoDel {
			continue
		}
		f := row.Fairness
		got = append(got, fmt.Sprintf(
			"%s|%s|plt=%g|p95=%g|mean=%g|tail=%d|aqm=%d|mark=%d|maxq=%d|bulk=%d|flows=%d|fb=%d|fw=%d|bq=%g|wq=%g|bd=%d|wd=%d|bm=%d|wm=%d|jain=%.6f",
			row.Link, row.Qdisc.String(), row.PLTms, row.P95SojournMs, row.MeanSojournMs,
			row.TailDrops, row.AQMDrops, row.AQMMarks, row.MaxQueue, row.BulkBytes,
			f.Flows, f.BulkBytes, f.WebBytes, f.BulkMeanQMs, f.WebMeanQMs,
			f.BulkDrops, f.WebDrops, f.BulkMarks, f.WebMarks, f.Jain))
	}
	if len(got) != len(bufferbloatGoldenPR5) {
		t.Fatalf("pre-fq cells = %d, want %d", len(got), len(bufferbloatGoldenPR5))
	}
	for i, want := range bufferbloatGoldenPR5 {
		if got[i] != want {
			t.Errorf("cell %d drifted:\ngot  %s\nwant %s", i, got[i], want)
		}
	}
}
