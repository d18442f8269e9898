package ingest

import (
	"bytes"
	"io"
	"os"
	"testing"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// segmentSeed returns the frame stream of a segment file written by the
// segment writer: its bytes after the segment header.
func segmentSeed(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := CreateSegmentDir(dir, SegmentOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range []string{
		"2006-07-06T02:41:00.95Z INFO R33 MONITOR ciod: generated core files for program",
		"2006-07-06T02:41:10Z FATAL R02-M1-N0 KERNEL data TLB error interrupt",
		"2006-07-06T02:41:20.5Z WARNING R17 - machine check interrupt",
	} {
		rec, err := logs.ParseRecord(line)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	return seg[segHeaderLen:]
}

// FuzzReadFrame drives the stream decoder (readFrame, the socket
// backend's) and the positional decoder (readFrameAt, the segment
// reader's) over the same arbitrary bytes. Neither may panic or return
// anything but its typed errors, the two must agree frame by frame on
// every non-empty frame, and every appendFrame output must round-trip.
func FuzzReadFrame(f *testing.F) {
	stream := segmentSeed(f)
	f.Add(stream)
	f.Add(stream[:len(stream)-3])                   // torn tail
	f.Add(append(appendFrame(nil, nil), stream...)) // end marker first
	corrupt := bytes.Clone(stream)
	corrupt[frameHeaderLen] ^= 0xff // first payload byte: CRC mismatch
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			t.Helper()
			switch err {
			case nil, io.EOF, errFrameTorn, errFrameInvalid, errFrameCRC:
			default:
				t.Fatalf("untyped decode error: %v", err)
			}
		}

		r := bytes.NewReader(data)
		limit := int64(len(data))
		var buf, bufAt []byte
		for pos := int64(0); ; {
			payload, nb, size, err := readFrame(r, buf)
			buf = nb
			typed(err)
			payloadAt, nbAt, sizeAt, errAt := readFrameAt(bytes.NewReader(data), limit, pos, bufAt)
			bufAt = nbAt
			typed(errAt)
			if err == nil && payload == nil {
				// A zero-length frame ends a socket stream but is never
				// valid inside a segment.
				if size != frameHeaderLen || errAt != errFrameInvalid {
					t.Fatalf("at %d: end frame: stream size %d, positional err %v", pos, size, errAt)
				}
				pos += frameHeaderLen
				continue
			}
			if err != errAt {
				t.Fatalf("at %d: stream err %v, positional err %v", pos, err, errAt)
			}
			if err != nil && err != errFrameCRC {
				break
			}
			if int64(size) != sizeAt || !bytes.Equal(payload, payloadAt) {
				t.Fatalf("at %d: stream frame (%d bytes, %q) != positional frame (%d bytes, %q)",
					pos, size, payload, sizeAt, payloadAt)
			}
			pos += sizeAt
		}

		if len(data) > MaxFramePayload {
			return
		}
		frame := appendFrame(nil, data)
		payload, _, size, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil || size != len(frame) || !bytes.Equal(payload, data) {
			t.Fatalf("stream round trip: size %d of %d, err %v", size, len(frame), err)
		}
		if len(data) == 0 {
			return // the end marker: rejected inside segments by design
		}
		payload, _, sizeAt, err := readFrameAt(bytes.NewReader(frame), int64(len(frame)), 0, nil)
		if err != nil || sizeAt != int64(len(frame)) || !bytes.Equal(payload, data) {
			t.Fatalf("positional round trip: size %d of %d, err %v", sizeAt, len(frame), err)
		}
	})
}
