// Package reuse holds the free lists through which a long-lived owner, an
// engine shard's pools, keeps the short-lived objects it serves and their
// growable storage: a packet, segment or connection is parked when it ends
// and handed out again, and a connection, a packet queue or a cell borrows
// capacity while it lives and hands it back when it ends, so a warmed
// owner allocates nothing and a parked object holds no capacity.
//
// Like every pool on the simulation path, a free list belongs to one event
// loop and is not safe for concurrent use.
package reuse

import "math/bits"

// Free is a LIFO free list of recycled objects with a loan ledger. Get
// returns the most recently parked object, or nil so the caller makes a
// fresh one; either way it counts a loan, which Put balances. The zero
// value is ready to use.
type Free[T any] struct {
	free       []*T
	gets, puts uint64
}

// Get counts a loan and returns the newest parked object, or nil when none
// is parked.
func (f *Free[T]) Get() *T {
	f.gets++
	n := len(f.free)
	if n == 0 {
		return nil
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

// Put parks x for a later Get. The caller must be done with x and must
// have cleared what it should not pin.
func (f *Free[T]) Put(x *T) {
	f.puts++
	f.free = append(f.free, x)
}

// Outstanding reports loans not yet returned: zero once every object Get
// lent (parked or fresh) has been put back.
func (f *Free[T]) Outstanding() int64 { return int64(f.gets) - int64(f.puts) }

// Arrays recycles slice backing arrays in power-of-two capacity classes,
// so an array handed back serves any later request of its class exactly
// and a growing slice never keeps an array of the wrong size. The zero
// value is ready to use.
type Arrays[T any] struct {
	free [][][]T // free[k] holds empty arrays of capacity 1<<k
}

// Get returns an empty slice with capacity n rounded up to a power of two
// (at least 1).
func (p *Arrays[T]) Get(n int) []T {
	k := 0
	if n > 1 {
		k = bits.Len(uint(n - 1))
	}
	if k < len(p.free) {
		if l := len(p.free[k]); l > 0 {
			s := p.free[k][l-1]
			p.free[k][l-1] = nil
			p.free[k] = p.free[k][:l-1]
			return s
		}
	}
	return make([]T, 0, 1<<k)
}

// Put hands s's backing array back for a later Get. Its elements are
// zeroed first, so the free list pins nothing they referenced. An array
// whose capacity is not a power of two did not come from Get and is left
// to the collector.
func (p *Arrays[T]) Put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	clear(s[:c])
	k := bits.TrailingZeros(uint(c))
	for len(p.free) <= k {
		p.free = append(p.free, nil)
	}
	p.free[k] = append(p.free[k], s[:0])
}

// Append appends v to s. A full s moves to an array of the next class and
// its old array goes back to the free list.
func (p *Arrays[T]) Append(s []T, v T) []T {
	if len(s) == cap(s) {
		next := append(p.Get(2*len(s)), s...)
		p.Put(s)
		s = next
	}
	return append(s, v)
}

// Maps is a free list of emptied maps. A map keeps the capacity it grew
// to, so an owner that builds the same table cell after cell takes the
// grown one back instead of regrowing a fresh one. Get is LIFO: owners
// that hand maps back in the reverse order of borrowing get each map back
// in the role it grew in. The zero value is ready to use.
type Maps[K comparable, V any] struct {
	free []map[K]V
}

// Get returns an empty map, reusing a handed-back one when there is one.
func (p *Maps[K, V]) Get() map[K]V {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	return make(map[K]V)
}

// Put empties m and hands it back for a later Get.
func (p *Maps[K, V]) Put(m map[K]V) {
	// A table handed back is usually empty already, and clear on an empty
	// map does nothing, leaving the deletion markers its insert and delete
	// churn wrote. The markers use up the map's free slots, so a reused map
	// would grow again cell after cell. One stored entry makes clear reset
	// every slot.
	var k K
	var v V
	m[k] = v
	clear(m)
	p.free = append(p.free, m)
}
