package cacheline

import (
	"testing"
	"unsafe"
)

// checkMake: Make's capacity is the smallest at or above n whose array
// fills whole blocks, skipping the 640-byte size whose allocation header
// would lift it into a class that is not.
func checkMake[T any](t *testing.T) {
	size := int(unsafe.Sizeof(*new(T)))
	ok := func(c int) bool { return c*size%Size == 0 && c*size != 640 }
	for n := 0; n <= 40; n++ {
		s := Make[T](n)
		if len(s) != n || !ok(cap(s)) {
			t.Fatalf("Make[%d-byte](%d): len %d cap %d", size, n, len(s), cap(s))
		}
		for c := n; c < cap(s); c++ {
			if ok(c) {
				t.Fatalf("Make[%d-byte](%d) = cap %d, but %d fits", size, n, cap(s), c)
			}
		}
	}
}

func TestMake(t *testing.T) {
	checkMake[byte](t)
	checkMake[[3]byte](t)
	checkMake[uint32](t)
	checkMake[[5]uint64](t)  // 40 bytes: trace events
	checkMake[[7]uint64](t)  // 56 bytes: lean machines
	checkMake[[10]uint64](t) // 80 bytes: 8 of them make 640
	checkMake[[16]uint64](t)
	checkMake[[33]uint64](t)
	checkMake[struct{}](t)
}
