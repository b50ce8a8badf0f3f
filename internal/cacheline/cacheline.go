// Package cacheline sizes the structs and slabs a pool worker keeps and
// writes on its hot path in whole 128-byte blocks, the line pair the
// adjacent-line prefetcher moves as one, so long-lived workers never
// share a line. Such an object lands in a size class that is a multiple
// of 128 and fills its blocks alone — except a 640-byte object with
// pointers, which its 8-byte allocation header lifts into the 704-byte
// class, so Make skips that size.
package cacheline

import "unsafe"

// Size is the block, as internal/metrics spaces its stripes.
const Size = 128

// Make returns a slice of length n whose capacity is the smallest at
// least n that makes its backing array a whole number of blocks, other
// than 640 bytes.
func Make[T any](n int) []T {
	size, c := int(unsafe.Sizeof(*new(T))), n
	for size > 0 && (c*size%Size != 0 || c*size == 640) {
		c++
	}
	return make([]T, n, c)
}
