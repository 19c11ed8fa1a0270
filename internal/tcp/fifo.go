package tcp

// fifo is a queue over one reusable backing array. Pops advance a head
// index instead of reslicing (which would shed capacity and make the next
// burst reallocate); an emptied queue rewinds to the array's start, and a
// full array with a consumed prefix compacts in place before growing. So
// once the largest backlog has been seen, pushes stop allocating — and a
// pooled sender's Reset carries the array on to the next flow.
type fifo[T any] struct {
	buf  []T
	head int
}

// len reports the number of queued items.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest item; the queue must be non-empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

// pop discards the oldest item; the queue must be non-empty.
func (q *fifo[T]) pop() {
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
}

// push appends v.
func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v) //greenvet:allow hotpathalloc grows only past the largest backlog seen so far; pops rewind onto the same array
}

// reset empties the queue, keeping the backing array.
func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }
