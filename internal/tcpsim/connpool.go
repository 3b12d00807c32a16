package tcpsim

import "repro/internal/reuse"

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
	// free counts a loan for every newConn on a pooled stack (whether
	// served from the free list or freshly allocated) and a return for
	// every Recycle.
	free   reuse.Free[Conn]
	tables reuse.Maps[fourTuple, *Conn]
}

// NewConnPool returns an empty connection free list.
func NewConnPool() *ConnPool { return &ConnPool{} }

// Outstanding reports pool-managed connections handed out and not yet
// recycled. Unlike SegmentPool.Outstanding it is not a leak detector on its
// own — recycling is opt-in per connection — but a driver that recycles
// every connection it opens can assert it returns to zero at quiescence.
func (p *ConnPool) Outstanding() int64 { return p.free.Outstanding() }

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
	// scalars are rebuilt by newConn on reuse; pointers are cleared now, and
	// the send queue goes back to the segment pool as the other queues did
	// at teardown, so a parked connection costs only its own struct.
	c.stack.segs.chunks.Put(c.sendq)
	c.sendq = nil
	c.acceptFn = nil
	c.onEstablished = nil
	c.onData = nil
	c.onDataC = nil
	c.onClose = nil
	c.onCloseC = nil
	c.closedErr = nil
	c.pooledFree = true
	p.free.Put(c)
}
