package store

import (
	"bytes"
	"errors"
	"io"
	"syscall"
	"testing"
)

// TestFrameReaderStopsAtFirstBadFrame: frames round-trip, and every cut,
// zero fill or flipped byte in the last frame reads as ErrBadFrame with
// Offset at the end of the valid prefix — the truncation point both the
// journal segments and the server's state log use.
func TestFrameReaderStopsAtFirstBadFrame(t *testing.T) {
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":"two"}`), []byte(`{"c":[3]}`)}
	var log []byte
	for _, p := range payloads {
		log = AppendFrame(log, p)
	}
	last := int64(len(log) - len(AppendFrame(nil, payloads[2])))

	fr := NewFrameReader(bytes.NewReader(log), 1<<10)
	for _, want := range payloads {
		got, err := fr.Next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Next = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF || fr.Offset() != int64(len(log)) {
		t.Fatalf("clean end: %v at offset %d, want io.EOF at %d", err, fr.Offset(), len(log))
	}

	badAt := func(name string, b []byte, want int64) {
		t.Helper()
		fr := NewFrameReader(bytes.NewReader(b), 1<<10)
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if err != ErrBadFrame || fr.Offset() != want {
			t.Fatalf("%s: %v at offset %d, want ErrBadFrame at %d", name, err, fr.Offset(), want)
		}
	}
	badAt("zero-filled tail", append(append([]byte{}, log...), make([]byte, 64)...), int64(len(log)))
	flipped := append([]byte{}, log...)
	flipped[len(log)-3] ^= 1
	badAt("flipped byte", flipped, last)
	badAt("oversized length", append(append([]byte{}, log[:last]...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0), last)
	for cut := last + 1; cut < int64(len(log)); cut++ {
		badAt("cut", log[:cut], last)
	}

	// A read error is not a torn frame: it surfaces as is, so nothing is
	// truncated over a transient fault.
	fr = NewFrameReader(io.MultiReader(bytes.NewReader(log[:last]), errReader{syscall.EIO}), 1<<10)
	var err error
	for err == nil {
		_, err = fr.Next()
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("read fault surfaced as %v, want EIO", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
