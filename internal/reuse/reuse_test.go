package reuse

import "testing"

func TestArraysClasses(t *testing.T) {
	var p Arrays[*int]
	for _, tc := range []struct{ n, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024}} {
		s := p.Get(tc.n)
		if len(s) != 0 || cap(s) != tc.want {
			t.Fatalf("Get(%d): len %d cap %d, want 0, %d", tc.n, len(s), cap(s), tc.want)
		}
	}
}

func TestArraysPutThenGetReusesAndZeroes(t *testing.T) {
	var p Arrays[*int]
	x := new(int)
	s := append(p.Get(3), x, x, x)
	p.Put(s)
	got := p.Get(4)
	if cap(got) != 4 || &got[:1][0] != &s[0] {
		t.Fatal("Get did not reuse the handed-back array of its class")
	}
	for i, v := range got[:cap(got)] {
		if v != nil {
			t.Fatalf("reused array still references element %d", i)
		}
	}
	if s := p.Get(4); &s[:1][0] == &got[:1][0] {
		t.Fatal("one array handed out twice")
	}
}

func TestArraysPutIgnoresForeignArrays(t *testing.T) {
	var p Arrays[int]
	p.Put(make([]int, 0, 3))
	p.Put(nil)
	for k, free := range p.free {
		if len(free) != 0 {
			t.Fatalf("class %d kept a foreign array", k)
		}
	}
}

func TestArraysAppendGrowsThroughClasses(t *testing.T) {
	var p Arrays[int]
	var s []int
	for i := 0; i < 100; i++ {
		s = p.Append(s, i)
	}
	if len(s) != 100 || cap(s) != 128 {
		t.Fatalf("len %d cap %d, want 100, 128", len(s), cap(s))
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d after growth", i, v)
		}
	}
	// Every outgrown array went back: one each of capacity 1 to 64.
	for k := 0; k < 7; k++ {
		if len(p.free[k]) != 1 {
			t.Fatalf("class %d holds %d arrays, want 1", k, len(p.free[k]))
		}
	}
	// A second slice grown the same way allocates nothing.
	p.Put(s)
	if n := testing.AllocsPerRun(10, func() {
		var s []int
		for i := 0; i < 100; i++ {
			s = p.Append(s, i)
		}
		p.Put(s)
	}); n != 0 {
		t.Fatalf("warm Append allocated %.0f times", n)
	}
}

func TestMapsLIFO(t *testing.T) {
	var p Maps[int, bool]
	a, b := p.Get(), p.Get()
	a[1], b[2] = true, true
	p.Put(b)
	p.Put(a)
	if got := p.Get(); len(got) != 0 || !sameMap(got, a) {
		t.Fatal("Get did not return the last map handed back, emptied")
	}
	if got := p.Get(); !sameMap(got, b) {
		t.Fatal("second Get did not return the first map handed back")
	}
}

// TestMapsReuseAfterChurnAllocatesNothing cycles one map through a
// connection table's life again and again: thousands of keys inserted and
// deleted through a bounded live window, then handed back empty. Once the
// map has grown to fit a cell, later cells must not grow it further.
func TestMapsReuseAfterChurnAllocatesNothing(t *testing.T) {
	var p Maps[int, int]
	m := p.Get()
	base := 0
	cell := func() {
		const keys, window = 8192, 1500
		for i := 0; i < keys; i++ {
			m[base+i] = i
			if i >= window {
				delete(m, base+i-window)
			}
		}
		for i := keys - window; i < keys; i++ {
			delete(m, base+i)
		}
		base += keys
		p.Put(m)
		m = p.Get()
	}
	for i := 0; i < 8; i++ {
		cell()
	}
	if n := testing.AllocsPerRun(40, cell); n != 0 {
		t.Fatalf("a reused map allocated %.1f times per cell", n)
	}
}

// sameMap reports whether a and b are one map: a write through a shows in b.
func sameMap(a, b map[int]bool) bool {
	a[-1] = true
	defer delete(a, -1)
	return b[-1]
}

func TestFreeLIFOAndLedger(t *testing.T) {
	var f Free[int]
	if f.Get() != nil {
		t.Fatal("empty free list handed out an object")
	}
	if f.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d after an empty Get, want 1 (the caller makes the object)", f.Outstanding())
	}
	a, b, c := new(int), new(int), new(int)
	f.Put(a)
	f.Put(b)
	f.Put(c)
	if f.Outstanding() != -2 {
		t.Fatalf("Outstanding = %d after one loan and three returns, want -2", f.Outstanding())
	}
	for i, want := range []*int{c, b, a} {
		if got := f.Get(); got != want {
			t.Fatalf("Get %d did not return the newest parked object", i)
		}
	}
	if f.Get() != nil {
		t.Fatal("drained free list handed out an object")
	}
	if f.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d after five loans and three returns, want 2", f.Outstanding())
	}
}

func TestFreeWarmAllocatesNothing(t *testing.T) {
	var f Free[int]
	objs := []*int{new(int), new(int), new(int), new(int)}
	for _, x := range objs {
		f.Put(x)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for range objs {
			f.Put(f.Get())
		}
		xs := [4]*int{f.Get(), f.Get(), f.Get(), f.Get()}
		for _, x := range xs {
			f.Put(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm free list allocated %.0f times per run", allocs)
	}
}
