// Package fifo is a fixture stand-in for the simulator's queue type: the
// analyzer recognizes Queue.Push by its defining package and type name.
package fifo

// Queue is a first-in first-out queue.
type Queue[T any] struct {
	buf []T
}

// Push appends v at the back of the queue.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }
