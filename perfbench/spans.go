package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spanCap bounds the spans one lane stores for the end-of-run dump. Spans
// past it are still timed and aggregated (count, total and self time per
// name); only their individual records are not kept.
const spanCap = 1 << 18

// spanID names a stored span: the lane number in the high 32 bits and the
// span's 1-based index in that lane below. Zero means "no span".
type spanID uint64

// span is one recorded interval. Times are nanoseconds since the tracer's
// base instant.
type span struct {
	start, end int64
	parent     spanID
	op         int32
	name       int32
}

// spanStat aggregates every span of one name on one lane.
type spanStat struct {
	count, totalNs, selfNs int64
}

// frame is an open span on a lane's stack. childNs accumulates the
// durations of the spans nested directly inside it, so that its self time
// is known the moment it ends.
type frame struct {
	id      spanID
	name    int32
	start   int64
	childNs int64
}

// tracer keeps spans in memory until the run ends. Each goroutine that
// records gets its own lane, so recording takes no locks.
type tracer struct {
	base  time.Time
	names []string
	index map[string]int32
	lanes []*lane
	// counters holds set-up quantities that are not spans (bytes
	// recorded); only the driving goroutine adds to it.
	counters map[string]float64
}

func newTracer(lanes int) *tracer {
	t := &tracer{base: time.Now(), index: map[string]int32{}, counters: map[string]float64{}}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{num: uint64(i), clock: t.now, op: -1})
	}
	return t
}

// timed runs fn, inside a span of the given name on lane 0 when t is not
// nil.
func (t *tracer) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	l := t.lanes[0]
	l.begin(t.name(name))
	fn()
	l.end()
}

// add adds v to a set-up counter when t is not nil.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counters[name] += v
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// name interns a span name. Call it before lanes record concurrently.
func (t *tracer) name(s string) int32 {
	if id, ok := t.index[s]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = id
	return id
}

// lane records the spans of one goroutine.
type lane struct {
	num   uint64
	clock func() int64
	// op is stamped on every span the lane records: the index, within the
	// workload's op sequence, of the op being run (-1 outside ops).
	op    int32
	spans []span
	stack []frame
	stats []spanStat
	// unstored counts spans past spanCap.
	unstored int
}

// begin opens a span nested in the lane's innermost open span.
func (l *lane) begin(name int32) spanID {
	var parent spanID
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
	}
	return l.beginUnder(name, parent)
}

// beginUnder opens a span with an explicit parent, which may live on
// another lane (a cell's span under the engine run that dispatched it).
// It returns the new span's id, or 0 once the lane stores no more spans.
func (l *lane) beginUnder(name int32, parent spanID) spanID {
	now := l.clock()
	var id spanID
	if len(l.spans) < spanCap {
		l.spans = append(l.spans, span{start: now, parent: parent, op: l.op, name: name})
		id = spanID(l.num<<32 | uint64(len(l.spans)))
	} else {
		l.unstored++
	}
	l.stack = append(l.stack, frame{id: id, name: name, start: now})
	return id
}

// end closes the innermost open span and returns its duration and self
// time (duration minus the time its child spans on this lane cover).
func (l *lane) end() (durNs, selfNs int64) {
	now := l.clock()
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	durNs = now - f.start
	selfNs = durNs - f.childNs
	if n > 0 {
		l.stack[n-1].childNs += durNs
	}
	if f.id != 0 {
		l.spans[uint32(f.id)-1].end = now
	}
	for int(f.name) >= len(l.stats) {
		l.stats = append(l.stats, spanStat{})
	}
	s := &l.stats[f.name]
	s.count++
	s.totalNs += durNs
	s.selfNs += selfNs
	return durNs, selfNs
}

// stat sums the aggregates of every span, on every lane, whose name equals
// prefix or starts with prefix followed by '/'.
func (t *tracer) stat(prefix string) spanStat {
	var sum spanStat
	for id, n := range t.names {
		if n != prefix && !strings.HasPrefix(n, prefix+"/") {
			continue
		}
		for _, l := range t.lanes {
			if id < len(l.stats) {
				s := l.stats[id]
				sum.count += s.count
				sum.totalNs += s.totalNs
				sum.selfNs += s.selfNs
			}
		}
	}
	return sum
}

// unstored counts the spans, over all lanes, that were aggregated but not
// stored for the dump.
func (t *tracer) unstored() int {
	n := 0
	for _, l := range t.lanes {
		n += l.unstored
	}
	return n
}

// dump writes every stored span, one per line, to path as tab-separated
// id, parent, op, name, start_ns, end_ns, ordered by start time.
func (t *tracer) dump(path string) (int, error) {
	type rec struct {
		id spanID
		s  span
	}
	var all []rec
	for _, l := range t.lanes {
		for i, s := range l.spans {
			all = append(all, rec{spanID(l.num<<32 | uint64(i+1)), s})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s.start < all[j].s.start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, r := range all {
		fmt.Fprintf(w, "%x\t%x\t%d\t%s\t%d\t%d\n", uint64(r.id), uint64(r.s.parent), r.s.op, t.names[r.s.name], r.s.start, r.s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}
