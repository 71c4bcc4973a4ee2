// Package fifo provides the one queue type behind every simulated hardware
// queue (link credit backlogs, DLL replay buffers, the DMAC read queue, the
// driver chain queue, the NIOS event log) and behind the bounded rings of
// the obsv span recorder and telemetry series.
//
// Queue is a growable ring: every operation is O(1), Push amortized, so a
// backlog of n entries drains in O(n) host time whatever its depth.
package fifo

// Queue is a first-in first-out queue on a ring buffer whose capacity is
// always a power of two. The zero value is an empty queue ready to use.
//
// Pop and Clear zero the slots they vacate, so a queue never keeps a
// popped pointer (a pooled packet, a closure) reachable.
type Queue[T any] struct {
	buf  []T
	head int // index of the front element in buf
	n    int // number of queued elements
}

// minCap is the capacity of the first ring a Push allocates.
const minCap = 4

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports the capacity of the ring: 0 until the first Push, then the
// power of two the queue has grown to.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, unwrapping the queue to start at index 0.
func (q *Queue[T]) grow() {
	c := 2 * len(q.buf)
	if c == 0 {
		c = minCap
	}
	buf := make([]T, c)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the front element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop of empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns a pointer to the front element, so a caller can update it
// in place. The pointer is valid until the next Push, Pop or Clear. It
// panics on an empty queue.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("fifo: Front of empty queue")
	}
	return &q.buf[q.head]
}

// At returns the i-th element from the front (At(0) is the front), for
// walking the queue in order without removing anything. It panics unless
// 0 <= i < Len().
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifo: At index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Clear empties the queue, zeroing every vacated slot. The ring keeps its
// capacity for reuse.
func (q *Queue[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.n = 0, 0
}
