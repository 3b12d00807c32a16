package engine

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netem"
	"repro/internal/nsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/trace"
)

// Class is a contention workload traffic class.
type Class int

// The three traffic classes of the contention mix. Web flows fetch a few
// heavy-tailed (Pareto) objects with think time between them — short flows
// that live mostly in slow start. Bulk flows download one large object —
// long flows that build the standing queue. RPC flows issue short
// fixed-size calls back to back — latency-bound traffic that feels whatever
// queue the other classes leave standing.
const (
	ClassWeb Class = iota
	ClassBulk
	ClassRPC
	numClasses
)

var classNames = [numClasses]string{"web", "bulk", "rpc"}

// String names the class.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return "invalid"
	}
	return classNames[c]
}

// Mix is the web:bulk:rpc flow-count ratio of a contention workload.
type Mix struct {
	Web, Bulk, RPC int
}

// ParseMix parses "web:bulk:rpc" integer weights, e.g. "6:1:3".
func ParseMix(s string) (Mix, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Mix{}, fmt.Errorf("engine: mix %q: want web:bulk:rpc", s)
	}
	var w [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return Mix{}, fmt.Errorf("engine: mix %q: bad weight %q", s, p)
		}
		w[i] = v
	}
	if w[0]+w[1]+w[2] == 0 {
		return Mix{}, fmt.Errorf("engine: mix %q: all weights zero", s)
	}
	return Mix{Web: w[0], Bulk: w[1], RPC: w[2]}, nil
}

// String renders the mix as "web:bulk:rpc".
func (m Mix) String() string {
	return fmt.Sprintf("%d:%d:%d", m.Web, m.Bulk, m.RPC)
}

// Counts deterministically partitions flows across the classes in weight
// proportion, by cumulative integer boundaries — the counts always sum to
// flows exactly, and a given (mix, flows) pair partitions identically
// everywhere.
func (m Mix) Counts(flows int) [numClasses]int {
	w := [numClasses]int{m.Web, m.Bulk, m.RPC}
	total := w[0] + w[1] + w[2]
	var out [numClasses]int
	if total == 0 || flows <= 0 {
		return out
	}
	cum, prev := 0, 0
	for i := range w {
		cum += w[i]
		b := flows * cum / total
		out[i] = b - prev
		prev = b
	}
	return out
}

// ContentionSpec describes one contention cell: N tcpsim flows in three
// classes sharing a qdisc'd, trace-shaped downlink. All randomness (arrival
// times, web object sizes, think times) derives from Seed via
// sim.DeriveSeed, so a spec is one deterministic simulation regardless of
// which shard runs it.
type ContentionSpec struct {
	// Seed roots every random stream in the cell.
	Seed uint64
	// Flows is the total concurrent-flow population across classes.
	Flows int
	// Mix is the web:bulk:rpc flow ratio (zero value: 6:1:3).
	Mix Mix
	// Qdisc disciplines the contended downlink (zero value: unbounded
	// droptail). ECN specs negotiate ECN on every connection.
	Qdisc netem.QdiscSpec
	// Up and Down shape the two link directions; nil defaults to a constant
	// 20 Mbit/s trace each.
	Up, Down *trace.Trace
	// OneWayDelay is the propagation delay either side of the link
	// (default 10 ms).
	OneWayDelay sim.Time
	// ArrivalWindow is the span over which flows start: each class's flows
	// arrive by a deterministic Poisson process filling the window
	// (default 2 s).
	ArrivalWindow sim.Time

	// Web class: WebTransfers objects per flow (default 2), sizes Pareto
	// (WebMinBytes scale, shape webAlpha, clamped to WebMaxBytes; defaults
	// 4 KB and 256 KB), exponential think time with mean WebThink
	// (default 200 ms) between objects.
	WebTransfers int
	WebThink     sim.Time
	WebMinBytes  int
	WebMaxBytes  int

	// Bulk class: one BulkBytes download per flow (default 512 KB).
	BulkBytes int

	// RPC class: RPCCalls calls per flow (default 6) of RPCBytes each
	// (default 2048), exponential gap with mean RPCGap (default 50 ms).
	RPCCalls int
	RPCGap   sim.Time
	RPCBytes int

	// TrackClassSojourns enables per-flow queue telemetry on the downlink
	// and its per-class aggregation (ClassStats queue columns). Off for
	// benchmarks: the tracking map is off the flat ns/event path.
	TrackClassSojourns bool
}

// withDefaults fills zero fields with the documented defaults.
func (s ContentionSpec) withDefaults() ContentionSpec {
	if s.Flows <= 0 {
		s.Flows = 100
	}
	if s.Mix == (Mix{}) {
		s.Mix = Mix{Web: 6, Bulk: 1, RPC: 3}
	}
	if s.OneWayDelay <= 0 {
		s.OneWayDelay = 10 * sim.Millisecond
	}
	if s.ArrivalWindow <= 0 {
		s.ArrivalWindow = 2 * sim.Second
	}
	if s.WebTransfers <= 0 {
		s.WebTransfers = 2
	}
	if s.WebThink <= 0 {
		s.WebThink = 200 * sim.Millisecond
	}
	if s.WebMinBytes <= 0 {
		s.WebMinBytes = 4 << 10
	}
	if s.WebMaxBytes <= 0 {
		s.WebMaxBytes = 256 << 10
	}
	if s.BulkBytes <= 0 {
		s.BulkBytes = 512 << 10
	}
	if s.RPCCalls <= 0 {
		s.RPCCalls = 6
	}
	if s.RPCGap <= 0 {
		s.RPCGap = 50 * sim.Millisecond
	}
	if s.RPCBytes <= 0 {
		s.RPCBytes = 2048
	}
	return s
}

// ClassStats is one traffic class's slice of a contention cell's results.
// The queue columns (QBytes onward) are filled only when the spec enables
// TrackClassSojourns.
type ClassStats struct {
	// Flows and Transfers count the class's flow population and its
	// completed transfers; Bytes is application payload received.
	Flows     int
	Transfers int
	Bytes     uint64
	// XferP50Ms and XferP95Ms summarize per-transfer completion latency
	// (dial to close).
	XferP50Ms, XferP95Ms float64
	// QBytes is the class's share of bytes the downlink queue delivered;
	// QMeanMs/QP50Ms/QP95Ms summarize the class's per-packet sojourn
	// through that queue; QDrops and QMarks are its losses and CE marks.
	QBytes                  uint64
	QMeanMs, QP50Ms, QP95Ms float64
	QDrops, QMarks          uint64
}

// ContentionResult is one cell's outcome. Every field is a pure function of
// the spec — virtual-clock measurements and event-order-deterministic
// aggregates, never wall-clock or shard identity — so results are
// byte-identical at any shard count.
type ContentionResult struct {
	Flows     int
	FlowsDone int
	// Errors counts failed transfers (dial errors, short or reset reads).
	Errors int
	// Duration is the virtual time at which the last event fired.
	Duration sim.Time
	// Events is the number of loop events the cell fired.
	Events uint64
	// Downlink queue totals.
	TailDrops, AQMDrops, AQMMarks uint64
	MaxQueue                      int
	// PeakConns is the high-water mark of concurrently open client
	// connections — evidence the population was genuinely concurrent.
	PeakConns int
	Classes   [numClasses]ClassStats
}

// Contention ports.
const (
	webPort  = 8080
	rpcPort  = 8081
	bulkPort = 9000
)

// webAlpha is the shape of the web class's Pareto object sizes.
const webAlpha = 1.3

var (
	contentionClientAddr = nsim.ParseAddr("10.1.0.1")
	contentionServerAddr = nsim.ParseAddr("10.1.0.2")
)

// cflow is one client flow's state machine. A flow runs transfers
// sequentially: dial, send an 8-byte size request (web/rpc; bulk servers
// push unprompted), count response bytes, close, think, repeat. cflows are
// pooled on the shard (contentionScratch) and reused across cells: the
// rng is an embedded value reseeded per cell, and the two per-flow
// callbacks are built once per cflow lifetime — they capture only the
// cflow pointer and read run/conn through it at call time — so a warmed
// shard's flow fan-out allocates nothing per flow.
type cflow struct {
	class Class
	rng   sim.Rand
	left  int // transfers remaining, current included
	want  int // expected response bytes this transfer
	got   int
	begin sim.Time
	run   *contentionRun
	conn  *tcpsim.Conn
	// req backs the size request; WriteStable aliases it, which is safe
	// because it is rewritten only after the previous transfer's connection
	// has fully closed.
	req     [8]byte
	onData  func([]byte)
	onClose func(error)
}

// contentionRun is the per-cell driver state shared by all flows.
type contentionRun struct {
	spec ContentionSpec
	loop *sim.Loop
	cs   *tcpsim.Stack

	flows      []cflow
	live, peak int
	done, errs int

	xferMS [numClasses]*stats.Accumulator
	bytes  [numClasses]uint64
	xfers  [numClasses]int
}

// reset prepares the pooled run for a new cell, reusing the accumulators'
// backing arrays.
func (r *contentionRun) reset(spec ContentionSpec, loop *sim.Loop, cs *tcpsim.Stack) {
	r.spec, r.loop, r.cs = spec, loop, cs
	r.live, r.peak, r.done, r.errs = 0, 0, 0, 0
	for i := range r.xferMS {
		if r.xferMS[i] == nil {
			r.xferMS[i] = stats.NewAccumulator()
		} else {
			r.xferMS[i].Reset()
		}
	}
	r.bytes = [numClasses]uint64{}
	r.xfers = [numClasses]int{}
}

// contentionScratch is the shard-pooled session state: the flow slice (and
// with it every cflow's persistent callbacks) plus the run driver survive
// across the shard's cells, so per-cell setup cost is dominated by the
// simulation itself, not by rebuilding 10k session structs.
type contentionScratch struct {
	flows []cflow
	run   contentionRun
}

func contentionScratchFor(sh *Shard) *contentionScratch {
	return sh.Scratch("engine.contention", func() any { return new(contentionScratch) }).(*contentionScratch)
}

// contentionArrive is the shared arrival/think ArgHandler: arg is the
// *cflow whose next transfer is due. Bound once per schedule call with no
// closure.
func contentionArrive(_ sim.Time, arg any) {
	f := arg.(*cflow)
	f.run.startTransfer(f)
}

// RunContention runs one contention cell on the shard and returns its
// result. The shard's loop and pools are reused across calls, and the
// pools own every container a cell grows: connections borrow their queues
// from the segment pool, and the cell borrows the stacks' connection
// tables, the client's socket table and the qdisc rings, handing them back
// when its loop has drained. So once the first cell has warmed the shard,
// a cell of the same size allocates only its fixed set-up, however many
// flows and packets it carries.
func RunContention(sh *Shard, spec ContentionSpec) ContentionResult {
	spec = spec.withDefaults()
	up, down := spec.Up, spec.Down
	if up == nil {
		up = defaultContentionTrace()
	}
	if down == nil {
		down = defaultContentionTrace()
	}

	loop := sh.Loop()
	fired0 := loop.Fired()
	network := nsim.NewNetworkPooled(loop, sh.Pools())
	client := network.NewNamespace("client")
	server := network.NewNamespace("server")
	client.AddAddress(contentionClientAddr)
	server.AddAddress(contentionServerAddr)

	// Only the downlink (responses, the bulk of the bytes) is contended
	// through the swept qdisc; the uplink carries requests and ACKs through
	// an unbounded droptail so the cells differ in exactly one variable.
	upQ := netem.QdiscSpec{}.Build()
	downQ := spec.Qdisc.Build()
	qs := downQ.QueueStats()
	var classOf map[uint64]Class
	if spec.TrackClassSojourns {
		qs.TrackFlows()
		classOf = make(map[uint64]Class, spec.Flows)
	}
	upPipe := netem.NewPipeline(
		netem.NewDelayBox(loop, spec.OneWayDelay),
		netem.NewTraceBox(loop, up.Cursor(), upQ),
	)
	downPipe := netem.NewPipeline(
		netem.NewTraceBox(loop, down.Cursor(), downQ),
		netem.NewDelayBox(loop, spec.OneWayDelay),
	)
	ec, es := nsim.Connect(client, server, upPipe, downPipe)
	client.AddDefaultRoute(ec)
	server.AddDefaultRoute(es)

	cs := tcpsim.NewStackPool(client, sh.Segments())
	ss := tcpsim.NewStackPool(server, sh.Segments())
	cs.SetConnPool(sh.Conns())
	ss.SetConnPool(sh.Conns())
	if spec.Qdisc.ECN {
		cs.SetECN(true)
		ss.SetECN(true)
	}

	// Servers serve every response body from the shard's stable zero
	// buffer: WriteStable aliases it, so response bytes never allocate.
	maxResp := spec.WebMaxBytes
	if spec.BulkBytes > maxResp {
		maxResp = spec.BulkBytes
	}
	if spec.RPCBytes > maxResp {
		maxResp = spec.RPCBytes
	}
	payload := sh.Payload(maxResp)

	// One callback value per cell serves every accepted connection: the
	// conn-passing forms (OnDataConn/OnCloseConn) keep the per-accept path
	// free of closure allocation.
	serveSize := func(c *tcpsim.Conn, p []byte) {
		// The request is exactly one 8-byte segment (a single WriteStable
		// on the client); anything else is a protocol error and the
		// response is simply not sent — the client counts the short read
		// as a transfer error.
		if len(p) != 8 {
			return
		}
		size := int(binary.BigEndian.Uint64(p))
		if size > len(payload) {
			size = len(payload)
		}
		c.WriteStable(payload[:size])
		c.Close()
	}
	serverDone := func(c *tcpsim.Conn, _ error) { ss.Recycle(c) }
	sizeServer := func(class Class) func(*tcpsim.Conn) {
		return func(c *tcpsim.Conn) {
			if classOf != nil {
				classOf[c.Flow()] = class
			}
			c.OnDataConn(serveSize)
			c.OnCloseConn(serverDone)
		}
	}
	mustListen(ss.Listen(nsim.AddrPort{Addr: contentionServerAddr, Port: webPort}, sizeServer(ClassWeb)))
	mustListen(ss.Listen(nsim.AddrPort{Addr: contentionServerAddr, Port: rpcPort}, sizeServer(ClassRPC)))
	bulkBody := payload[:spec.BulkBytes]
	mustListen(ss.Listen(nsim.AddrPort{Addr: contentionServerAddr, Port: bulkPort}, func(c *tcpsim.Conn) {
		if classOf != nil {
			classOf[c.Flow()] = ClassBulk
		}
		c.OnDataConn(ignoreData)
		c.WriteStable(bulkBody)
		c.Close()
		c.OnCloseConn(serverDone)
	}))

	scr := contentionScratchFor(sh)
	r := &scr.run
	r.reset(spec, loop, cs)
	if cap(scr.flows) < spec.Flows {
		scr.flows = make([]cflow, spec.Flows)
	}
	r.flows = scr.flows[:spec.Flows]
	counts := spec.Mix.Counts(spec.Flows)
	idx := 0
	for cls := Class(0); cls < numClasses; cls++ {
		n := counts[cls]
		if n == 0 {
			continue
		}
		// Deterministic Poisson arrivals filling the window: the class's
		// arrival stream and each flow's private stream derive from the
		// seed and class label alone, so neither flow count changes in
		// *other* classes nor shard assignment perturbs them.
		arrivals := sim.NewRand(sim.DeriveSeed(spec.Seed, "arrivals", classNames[cls]))
		base := sim.DeriveSeed(spec.Seed, "flow", classNames[cls])
		mean := float64(spec.ArrivalWindow) / float64(n+1)
		var at float64
		for k := 0; k < n; k++ {
			f := &r.flows[idx]
			idx++
			f.class = cls
			f.rng.Seed(base + uint64(k))
			f.run = r
			f.conn = nil
			f.want, f.got, f.begin = 0, 0, 0
			if f.onData == nil {
				// First use of this pooled slot: build the flow's two
				// persistent callbacks. They capture only f; run and conn
				// are read through f when they fire, so the same callback
				// values serve every later cell on this shard.
				f.onData = func(p []byte) { f.got += len(p) }
				f.onClose = func(err error) { f.run.finishTransfer(f, err) }
			}
			switch cls {
			case ClassWeb:
				f.left = spec.WebTransfers
			case ClassBulk:
				f.left = 1
			case ClassRPC:
				f.left = spec.RPCCalls
			}
			at += arrivals.ExpFloat64() * mean
			loop.ScheduleArg(sim.Time(at), contentionArrive, f)
		}
	}
	loop.Run()
	// Hand the cell-scoped storage back in the reverse order of borrowing:
	// the free lists are LIFO, so the next cell's client and server each
	// get back the table they grew.
	ss.ReleaseStorage()
	cs.ReleaseStorage()
	server.ReleaseStorage()
	client.ReleaseStorage()
	downQ.ReleaseStorage()
	upQ.ReleaseStorage()

	res := ContentionResult{
		Flows:     spec.Flows,
		FlowsDone: r.done,
		Errors:    r.errs,
		Duration:  loop.Now(),
		Events:    loop.Fired() - fired0,
		TailDrops: qs.TailDrops,
		AQMDrops:  qs.AQMDrops,
		AQMMarks:  qs.AQMMarks,
		MaxQueue:  qs.MaxLen,
		PeakConns: r.peak,
	}
	for cls := Class(0); cls < numClasses; cls++ {
		st := &res.Classes[cls]
		st.Flows = counts[cls]
		st.Transfers = r.xfers[cls]
		st.Bytes = r.bytes[cls]
		if s := r.xferMS[cls].Sample(); s.Len() > 0 {
			st.XferP50Ms = s.Median()
			st.XferP95Ms = s.Percentile(95)
		}
	}
	if classOf != nil {
		aggregateClassQueue(&res, qs, classOf)
	}
	return res
}

// aggregateClassQueue folds the downlink queue's per-flow telemetry into
// per-class sums. Flow ids are iterated in ascending order (netem sorts
// them), so the merged per-class sojourn distributions — and their
// percentiles — are deterministic.
func aggregateClassQueue(res *ContentionResult, qs *netem.QueueStats, classOf map[uint64]Class) {
	var samples [numClasses][]*stats.Sample
	var agg [numClasses]netem.FlowQueueStats
	for _, id := range qs.Flows() {
		cls, ok := classOf[id]
		if !ok {
			continue // handshake-only flow the queue saw before class tagging
		}
		f := qs.Flow(id)
		agg[cls].Add(f)
		samples[cls] = append(samples[cls], f.SojournSample())
	}
	for cls := Class(0); cls < numClasses; cls++ {
		st := &res.Classes[cls]
		a := agg[cls]
		st.QBytes = a.DequeuedBytes
		st.QMeanMs = a.MeanSojourn().Milliseconds()
		st.QDrops = a.TailDrops + a.AQMDrops
		st.QMarks = a.AQMMarks
		if s := stats.MergeSamples(samples[cls]...); s.Len() > 0 {
			st.QP50Ms = s.Median()
			st.QP95Ms = s.Percentile(95)
		}
	}
}

// startTransfer begins flow f's next transfer: dial the class port, send
// the size request (bulk servers push without one), count response bytes.
func (r *contentionRun) startTransfer(f *cflow) {
	var port uint16
	switch f.class {
	case ClassWeb:
		port = webPort
		size := f.rng.Pareto(float64(r.spec.WebMinBytes), webAlpha)
		f.want = int(size)
		if f.want > r.spec.WebMaxBytes {
			f.want = r.spec.WebMaxBytes
		}
	case ClassRPC:
		port = rpcPort
		f.want = r.spec.RPCBytes
	case ClassBulk:
		port = bulkPort
		f.want = r.spec.BulkBytes
	}
	f.got = 0
	f.begin = r.loop.Now()
	conn, err := r.cs.Dial(contentionClientAddr, nsim.AddrPort{Addr: contentionServerAddr, Port: port})
	if err != nil {
		r.errs++
		r.flowDone(f)
		return
	}
	r.live++
	if r.live > r.peak {
		r.peak = r.live
	}
	if f.class != ClassBulk {
		binary.BigEndian.PutUint64(f.req[:], uint64(f.want))
		conn.WriteStable(f.req[:])
	}
	conn.Close() // half-close: the response still flows
	f.conn = conn
	conn.OnData(f.onData)
	conn.OnClose(f.onClose)
}

// finishTransfer records the completed (or failed) transfer, recycles the
// connection, and schedules the flow's next transfer after its think time.
func (r *contentionRun) finishTransfer(f *cflow, err error) {
	r.live--
	if err != nil || f.got != f.want {
		r.errs++
	} else {
		r.xfers[f.class]++
		r.bytes[f.class] += uint64(f.got)
		r.xferMS[f.class].Add((r.loop.Now() - f.begin).Milliseconds())
	}
	r.cs.Recycle(f.conn)
	f.conn = nil
	f.left--
	if f.left <= 0 {
		r.done++
		return
	}
	var mean sim.Time
	switch f.class {
	case ClassWeb:
		mean = r.spec.WebThink
	case ClassRPC:
		mean = r.spec.RPCGap
	}
	gap := sim.Time(f.rng.ExpFloat64() * float64(mean))
	r.loop.ScheduleArg(gap, contentionArrive, f)
}

// ignoreData is the bulk server's shared no-op data callback (requests on
// the bulk port carry no payload the server needs).
func ignoreData(*tcpsim.Conn, []byte) {}

// flowDone retires a flow without a live connection (dial failure).
func (r *contentionRun) flowDone(f *cflow) {
	f.left = 0
	r.done++
}

// defaultContentionTrace is the fallback 20 Mbit/s constant link.
func defaultContentionTrace() *trace.Trace {
	t, err := trace.Constant(20_000_000, 1000)
	if err != nil {
		panic("engine: " + err.Error())
	}
	return t
}

func mustListen(err error) {
	if err != nil {
		panic("engine: " + err.Error())
	}
}
