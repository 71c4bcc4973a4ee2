package fifo

import "testing"

// contents walks q in order with At.
func contents(q *Queue[int]) []int {
	out := make([]int, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZeroValueIsEmpty(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 || q.Cap() != 0 {
		t.Fatalf("Len, Cap = %d, %d, want 0, 0", q.Len(), q.Cap())
	}
	q.Clear() // no-op on a queue that never allocated
	q.Push(7)
	if q.Cap() != minCap {
		t.Fatalf("Cap after first Push = %d, want %d", q.Cap(), minCap)
	}
	if got := q.Pop(); got != 7 || q.Len() != 0 {
		t.Fatalf("Pop = %d (len %d), want 7 (len 0)", got, q.Len())
	}
}

// TestOrderAcrossWraparound keeps the queue shallow while pushing many more
// elements than the ring holds, so head laps the buffer repeatedly.
func TestOrderAcrossWraparound(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

// TestGrowWhileWrapped grows the ring while its contents wrap past the end
// of the buffer (head > 0), which must unwrap them in order.
func TestGrowWhileWrapped(t *testing.T) {
	var q Queue[int]
	for i := 0; i < minCap; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(minCap)
	q.Push(minCap + 1) // ring full, head == 2, contents wrap
	if q.head == 0 || q.Len() != len(q.buf) {
		t.Fatalf("setup: head %d len %d cap %d, want a full wrapped ring", q.head, q.Len(), len(q.buf))
	}
	q.Push(minCap + 2) // grows
	if len(q.buf) != 2*minCap {
		t.Fatalf("cap after grow = %d, want %d", len(q.buf), 2*minCap)
	}
	want := []int{2, 3, 4, 5, 6}
	if got := contents(&q); !equal(got, want) {
		t.Fatalf("after grow: %v, want %v", got, want)
	}
	for _, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
}

func TestClearThenReuse(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	for i := 100; i < 120; i++ {
		q.Push(i)
	}
	for i := 100; i < 120; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
}

func TestInOrderAccessAfterWrap(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	for i := 8; i < 13; i++ {
		q.Push(i) // wraps within the 8-slot ring
	}
	if q.head+q.Len() <= len(q.buf) {
		t.Fatalf("setup: contents do not wrap (head %d len %d cap %d)", q.head, q.Len(), len(q.buf))
	}
	if got, want := contents(&q), []int{6, 7, 8, 9, 10, 11, 12}; !equal(got, want) {
		t.Fatalf("At walk = %v, want %v", got, want)
	}
	*q.Front() = 60
	if q.At(0) != 60 || q.Pop() != 60 {
		t.Fatalf("Front did not update the front element in place")
	}
}

func TestEmptyQueuePanics(t *testing.T) {
	for name, f := range map[string]func(q *Queue[int]){
		"Pop":   func(q *Queue[int]) { q.Pop() },
		"Front": func(q *Queue[int]) { q.Front() },
		"At":    func(q *Queue[int]) { q.At(0) },
	} {
		t.Run(name, func(t *testing.T) {
			var q Queue[int]
			q.Push(1)
			q.Pop() // allocated ring, no elements
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty queue did not panic", name)
				}
			}()
			f(&q)
		})
	}
}

// TestVacatedSlotsZeroed checks that Pop and Clear drop every reference
// they vacate, so the ring keeps nothing reachable that left the queue.
func TestVacatedSlotsZeroed(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 6; i++ {
		v := i
		q.Push(&v)
	}
	q.Pop()
	q.Pop()
	nonNil := 0
	for _, p := range q.buf {
		if p != nil {
			nonNil++
		}
	}
	if nonNil != q.Len() {
		t.Fatalf("after Pop: %d non-nil slots, %d queued", nonNil, q.Len())
	}
	q.Push(new(int))
	q.Push(new(int)) // wrapped contents
	q.Clear()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("after Clear: slot %d still holds %p", i, p)
		}
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 64; i++ {
		q.Push(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(x)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop at steady depth: %v allocs/op, want 0", allocs)
	}
}
