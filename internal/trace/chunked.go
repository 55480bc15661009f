package trace

// chunkLen is the length of every chunk of a chunked sequence but the first.
const chunkLen = 256

// chunked is an append-only sequence kept in chunks of chunkLen. A full
// chunk is never copied, so the sequence costs what it holds, where a
// slice's regrowths allocate several times that; and an element's address
// stays put. The first chunk grows as a slice does, so a short sequence
// stays small.
type chunked[T any] struct {
	chunks [][]T
	// end is one past the last index in use. An append that does not fit
	// the rest of the last chunk starts the next one, and the rest's
	// indices are never used.
	end int
}

// append adds vs, at most chunkLen of them, to one chunk and returns the
// index of the first.
func (c *chunked[T]) append(vs ...T) int {
	if len(vs) > chunkLen {
		panic("trace: more than a chunk appended at once")
	}
	if len(c.chunks) == 0 || len(c.chunks[len(c.chunks)-1])+len(vs) > chunkLen {
		var next []T
		if len(c.chunks) > 0 {
			next = make([]T, 0, chunkLen)
		}
		c.chunks = append(c.chunks, next)
		c.end = (len(c.chunks) - 1) * chunkLen
	}
	last := &c.chunks[len(c.chunks)-1]
	i := c.end
	*last = append(*last, vs...)
	c.end += len(vs)
	return i
}

// at returns the element at index i.
func (c *chunked[T]) at(i int) *T { return &c.chunks[i/chunkLen][i%chunkLen] }

// slice returns the n elements an append put at index i.
func (c *chunked[T]) slice(i, n int) []T {
	if n == 0 {
		return nil // i may be the first index of a chunk not yet made
	}
	j := i % chunkLen
	return c.chunks[i/chunkLen][j : j+n]
}
