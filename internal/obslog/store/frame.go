package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// The frame codec is shared by the journal segments and any other
// append-only file that wants the same crash semantics (the server's
// state log): a frame is
//
//	uint32 LE  payload length
//	uint32 LE  CRC32 (IEEE) of payload
//	payload
//	'\n'
//
// and a reader stops at the first frame that is not whole and intact,
// which is where a torn or corrupt tail gets truncated.

// headerLen is the length-plus-CRC prefix of every frame.
const headerLen = 8

// ErrBadFrame reports that the bytes at a FrameReader's offset do not
// hold one whole valid frame: a short header or payload, a zero or
// oversized length, a CRC mismatch, or a missing terminator.
var ErrBadFrame = errors.New("torn or corrupt frame")

// AppendFrame appends payload to dst as one frame and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// FrameReader reads frames back in order through one reused buffer.
type FrameReader struct {
	r   *bufio.Reader
	max uint32
	buf []byte
	off int64
}

// NewFrameReader reads frames from r, rejecting any whose declared
// payload length exceeds maxPayload.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16), max: uint32(maxPayload)}
}

// Next returns the next frame's payload, valid until the following
// call. It returns io.EOF at a clean end, ErrBadFrame when the bytes at
// Offset are not one whole valid frame, and any other read error as is.
func (fr *FrameReader) Next() ([]byte, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrBadFrame
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	if length == 0 || length > fr.max {
		return nil, ErrBadFrame
	}
	if cap(fr.buf) <= int(length) {
		fr.buf = make([]byte, int(length)+1)
	}
	b := fr.buf[:int(length)+1]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrBadFrame
		}
		return nil, err
	}
	payload := b[:length]
	if b[length] != '\n' || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
		return nil, ErrBadFrame
	}
	fr.off += headerLen + int64(length) + 1
	return payload, nil
}

// Offset reports the bytes consumed by the valid frames read so far:
// after a clean end it is the stream's length, and after ErrBadFrame it
// is where the valid prefix ends.
func (fr *FrameReader) Offset() int64 { return fr.off }
