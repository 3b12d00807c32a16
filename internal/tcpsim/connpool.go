package tcpsim

import (
	"repro/internal/nsim"
	"repro/internal/reuse"
)

// ConnPool is a free list of recycled Conns. A fresh connection is the last
// per-flow allocation spike on the many-flow hot path: segments and
// datagrams already recycle through their pools, but every Dial/accept used
// to allocate a Conn. Workload drivers that open thousands of short
// connections (the contention engine's web and RPC classes) instead hand
// each closed connection back via Stack.Recycle, and newConn reuses the
// struct. The pool keeps only structs: a connection's queues belong to the
// SegmentPool, which took them back when the connection closed and lends
// them again as the reused connection grows, so steady-state connection
// churn allocates nothing.
//
// The pool also lends the stacks' connection tables, which a driver running
// cell after cell hands back at the end of each cell (Stack.ReleaseStorage)
// instead of regrowing fresh ones.
//
// Like SegmentPool and nsim.PoolSet, a ConnPool is single-goroutine: it may
// be threaded through many sequential simulations and shared by stacks on
// the same loop, but must never be shared across concurrently running loops.
type ConnPool struct {
	free   []*Conn
	tables reuse.Maps[fourTuple, *Conn]
	// gets counts every newConn on a pooled stack (whether served from the
	// free list or freshly allocated); puts counts every Recycle. The
	// difference is the number of pool-managed connections currently live.
	gets, puts uint64
}

// NewConnPool returns an empty connection free list.
func NewConnPool() *ConnPool { return &ConnPool{} }

// Outstanding reports pool-managed connections handed out and not yet
// recycled. Unlike SegmentPool.Outstanding it is not a leak detector on its
// own — recycling is opt-in per connection — but a driver that recycles
// every connection it opens can assert it returns to zero at quiescence.
func (p *ConnPool) Outstanding() int64 { return int64(p.gets) - int64(p.puts) }

// SetConnPool attaches a connection free list to the stack. Connections are
// only returned to it explicitly (Stack.Recycle); stacks without a pool
// behave exactly as before.
func (s *Stack) SetConnPool(p *ConnPool) { s.connPool = p }

// table lends a connection table: a handed-back one when the pool has one,
// else a fresh map. A pool-less stack (nil p) always gets a fresh map.
func (p *ConnPool) table() map[fourTuple]*Conn {
	if p == nil {
		return make(map[fourTuple]*Conn)
	}
	return p.tables.Get()
}

// ReleaseStorage hands the stack's connection table back to its ConnPool,
// emptied, for a later stack to reuse. Call it once the stack's loop has
// drained and the stack will carry no more traffic, as a driver running
// cell after cell on one pool does at the end of each cell. Connections
// still open are dropped from the table, not closed. A pool-less stack
// keeps its table.
func (s *Stack) ReleaseStorage() {
	if s.connPool == nil || s.conns == nil {
		return
	}
	s.connPool.tables.Put(s.conns)
	s.conns = nil
}

// takePooledConn pops a recycled connection, counting the request either
// way so the ledger covers fresh allocations too. Returns nil when no pool
// is attached or the free list is empty.
func (s *Stack) takePooledConn() *Conn {
	p := s.connPool
	if p == nil {
		return nil
	}
	p.gets++
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	return nil
}

// Recycle returns a fully closed connection to the stack's pool for reuse
// by a later Dial or accept. It is safe to call from the connection's
// OnClose callback: close notification is delivered from a scheduled event,
// after any in-progress packet train has flushed its deferred timer state.
// Calls on a pool-less stack, on a connection that is not closed, or on one
// already recycled are no-ops, so callers need no conditional logic.
func (s *Stack) Recycle(c *Conn) {
	p := s.connPool
	if p == nil || c.state != StateClosed || c.pooledFree || c.rtoDirty {
		return
	}
	// Drop every reference the idle connection would otherwise pin. State
	// scalars are rebuilt by reset on reuse; pointers are cleared now, and
	// the send queue goes back to the segment pool as the other queues did
	// at teardown, so a parked connection costs only its own struct.
	c.stack.segs.chunks.Put(c.sendq)
	c.sendq = nil
	c.sendHead = 0
	c.sendOff = 0
	c.sendLen = 0
	c.acceptFn = nil
	c.onEstablished = nil
	c.onData = nil
	c.onDataC = nil
	c.onClose = nil
	c.onCloseC = nil
	c.closedErr = nil
	c.pooledFree = true
	p.puts++
	p.free = append(p.free, c)
}

// reset rebuilds a recycled connection into the state newConn would have
// produced. It holds no storage: the queues went back to the segment pool
// and are borrowed from the new stack's pool as the connection grows them.
// Every field of Conn is either re-initialized here or was cleared by
// teardown/Recycle; keep this in sync with the struct definition.
func (c *Conn) reset(s *Stack, local, remote nsim.AddrPort, server bool) {
	prev := c.stack
	c.stack = s
	c.cc = s.cc
	c.local = local
	c.remote = remote
	c.server = server
	c.flow = s.ns.Network().NextFlow()
	if server {
		c.state = StateSynRcvd
	} else {
		c.state = StateSynSent
	}

	c.sndUna = 0
	c.sndNxt = 0
	// sendq went back to the pool in Recycle; rtxq, ooo and sackList at
	// teardown.
	c.cwnd = InitialWindow
	c.ssthresh = ReceiveWindow
	c.dupAcks = 0
	c.cubic = cubicState{}
	c.pipeBytes = 0
	c.holeIdx = 0
	c.inRecovery = false
	c.recoverSeq = 0
	c.recoveryStart = 0
	c.highSack = 0
	c.appClosed = false
	c.finSent = false
	c.ectOK = false
	c.ecnRecover = 0
	c.cwrPending = false

	c.rcvNxt = 0
	c.ceEcho = false
	c.peerFin = false
	c.peerFinSeq = 0

	c.srtt = 0
	c.rttvar = 0
	c.rto = initialRTO
	c.rtoRetries = 0
	// The timer survives recycling: it is bound to this connection's onRTO
	// and sim.Timer handles are generation-checked, so a handle left over
	// from before a Loop.Reset is inert and Reset re-arms it freshly. Only a
	// move to a different loop needs a rebind.
	if prev == nil || prev.loop != s.loop {
		c.rtoTimer = s.loop.NewTimer(c.onRTO)
	}

	c.stats = Stats{}
	c.closedErr = nil
	c.closeNotified = false
	c.pooledFree = false
}
