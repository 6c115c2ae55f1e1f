package dtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// TestFrameReaderReusesItsBuffer pins the ownership rule of FrameReader: what
// Next returns is a view of one buffer. A frame larger than that buffer
// followed by small ones round-trips, and the small ones land where the large
// one was — a caller that wants to keep a payload has to copy it.
func TestFrameReaderReusesItsBuffer(t *testing.T) {
	big := bytes.Repeat([]byte{0xB1}, 3*frameReadBuf) // larger than the read-ahead and the frame buffer
	payloads := [][]byte{[]byte("small"), big, []byte("SMALL"), nil}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, FrameMsg, p)
	}
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	var held []byte
	off := 0
	for i, want := range payloads {
		typ, payload, frame, err := fr.Next()
		if err != nil || typ != FrameMsg || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: Next = %d, %d bytes, %v; want %d bytes", i, typ, len(payload), err, len(want))
		}
		if raw := stream[off : off+len(frame)]; !bytes.Equal(frame, raw) {
			t.Fatalf("frame %d: raw frame differs from the %d bytes on the wire", i, len(raw))
		}
		off += len(frame)
		if i == 1 {
			held = payload
		}
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("Next at the end of the stream = %v, want io.EOF", err)
	}
	if !bytes.HasPrefix(held, []byte("SMALL")) {
		t.Fatalf("the view of the large payload still starts %x after two further frames: Next no longer reuses its buffer", held[:5])
	}
}

// frameErrClass maps a frame-decoding error to the sentinel it wraps.
func frameErrClass(err error) error {
	for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameTooShort, ErrFrameTooLarge, ErrBadVersion} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzFrameReader is the differential test of the streaming decoder against
// the in-memory one: a byte stream — one frame or many, cut anywhere, fed
// whole, a byte at a time or in halves — yields the same (type, payload)
// sequence and ends in the same class of error from both, without a panic and
// without the reader's buffer outgrowing the frame bound.
func FuzzFrameReader(f *testing.F) {
	const maxFrame = 1 << 12
	// FuzzFrameCodec's corpus.
	f.Add(AppendFrame(nil, FrameHello, []byte(`{"worker":1}`)), uint16(0xffff), byte(0))
	f.Add(AppendFrame(nil, FrameMsg, bytes.Repeat([]byte{7}, 64)), uint16(0xffff), byte(1))
	f.Add(AppendFrame(nil, FrameHeartbeat, nil), uint16(0xffff), byte(2))
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{0, 0, 0, 2, FrameVersion}, uint16(0xffff), byte(1))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1), uint16(0xffff), byte(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint16(0xffff), byte(0))
	// A multi-frame stream, whole and cut inside the third frame's length
	// prefix, its header and its payload.
	var stream []byte
	for i, p := range [][]byte{[]byte("a"), nil, bytes.Repeat([]byte{9}, 600), []byte("tail")} {
		stream = AppendFrame(stream, FrameMsg+byte(i), p)
	}
	for _, cut := range []uint16{0xffff, 15, 18, 200} {
		for mode := byte(0); mode < 3; mode++ {
			f.Add(stream, cut, mode)
		}
	}
	f.Add(append(AppendFrame(nil, FrameMsg, []byte("ok")), 0, 0, 0, 9, FrameVersion+1, 0, 0, 0, 0, 0, 0, 0, 0), uint16(0xffff), byte(1))
	f.Add(AppendFrame(nil, FrameMsg, bytes.Repeat([]byte{1}, maxFrame-frameTrailersLen+1)), uint16(0xffff), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16, mode byte) {
		if int(cut) < len(data) {
			data = data[:cut]
		}
		var src io.Reader = bytes.NewReader(data)
		switch mode % 3 {
		case 1:
			src = iotest.OneByteReader(src)
		case 2:
			src = iotest.HalfReader(src)
		}
		fr := NewFrameReader(src, maxFrame)
		rest := data
		for i := 0; ; i++ {
			wantTyp, wantPayload, n, wantErr := DecodeFrame(rest, maxFrame)
			if wantErr == io.ErrUnexpectedEOF && len(rest) == 0 {
				// Only a stream can tell a clean end from a cut.
				wantErr = io.EOF
			}
			typ, payload, frame, err := fr.Next()
			if c := cap(fr.buf); c > frameHeaderLen+maxFrame {
				t.Fatalf("frame %d: the reader's buffer grew to %d bytes, past the %d-byte frame bound", i, c, maxFrame)
			}
			if wantErr != nil {
				if frameErrClass(err) != frameErrClass(wantErr) {
					t.Fatalf("frame %d: Next error = %v, DecodeFrame error = %v", i, err, wantErr)
				}
				return
			}
			if err != nil || typ != wantTyp || !bytes.Equal(payload, wantPayload) || !bytes.Equal(frame, rest[:n]) {
				t.Fatalf("frame %d: Next = (%d, %x, %v), DecodeFrame = (%d, %x)", i, typ, payload, err, wantTyp, wantPayload)
			}
			rest = rest[n:]
		}
	})
}
