package experiments

import (
	"testing"
)

// TestLinkcharGolden pins the full link-character grid artifact to the
// bytes captured when the impairment vocabulary landed
// (testdata/linkchar_pr10.golden), at several shard counts.
// This is the impairment analogue of the bufferbloat cell pin: any change
// to a box's draw discipline, the corpus synthesis, the 4-state chain, or
// the tcpsim goodput accounting moves these bytes.
func TestLinkcharGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid run")
	}
	want := readGolden(t, "linkchar_pr10.golden")
	for _, shards := range []int{1, 4} {
		cfg := DefaultLinkchar()
		cfg.Shards = shards
		if got := Linkchar(cfg).String(); got != want {
			t.Errorf("shards=%d: linkchar artifact drifted\n got: %q\nwant: %q",
				shards, clip(got), clip(want))
		}
	}
}

// TestLinkcharExercisesImpairments asserts the grid's reason to exist: the
// reorder arm must demonstrably drive dupack-triggered fast retransmits,
// the corrupt arm checksum drops, and the duplicate arm duplicate bytes
// with zero retransmissions (nothing was lost — goodput equals delivered
// minus waste).
func TestLinkcharExercisesImpairments(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid run")
	}
	res := Linkchar(DefaultLinkchar())
	var reorderFast, corruptDrops, dupBytes uint64
	clean := map[string]uint64{} // link+qdisc -> clean-arm retransmits
	for _, row := range res.Rows {
		if row.Impair == "clean" {
			clean[row.Link+"|"+row.Qdisc.String()] = row.Retransmits
		}
	}
	for _, row := range res.Rows {
		switch row.Impair {
		case "reorder", "scripted-reorder":
			reorderFast += row.FastRetransmits
		case "corrupt":
			corruptDrops += row.ChecksumDrops
		case "duplicate":
			dupBytes += row.DupBytes
			// Duplication loses nothing, so the only retransmits allowed
			// are the ones the clean arm already has (queue/AQM losses):
			// any surplus would be a duplicate-faked loss signal.
			if want := clean[row.Link+"|"+row.Qdisc.String()]; row.Retransmits != want {
				t.Errorf("%s/%s: duplicate arm retransmits = %d, clean arm = %d",
					row.Link, row.Qdisc.String(), row.Retransmits, want)
			}
		}
	}
	if reorderFast == 0 {
		t.Error("reorder arms triggered no fast retransmits")
	}
	if corruptDrops == 0 {
		t.Error("corrupt arm produced no checksum drops")
	}
	if dupBytes == 0 {
		t.Error("duplicate arm produced no duplicate bytes")
	}
}
