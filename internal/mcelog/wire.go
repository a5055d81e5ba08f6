package mcelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// Wire streaming format ("CBF2" — cordial binary frames, version 2).
//
// JSONL ingest pays a JSON parse and several allocations per event; at
// fleet rates the wire becomes the bottleneck before the predictor does.
// This is the one binary event format, for files (ReadLog), streams and
// HTTP alike: fixed 19-byte records, length-prefixed into CRC-framed
// batches so a reader can decode incrementally with zero allocations and
// reject a corrupt or truncated frame before acting on any of its events.
//
//	stream: magic "CBF2"
//	frame:  uint32 payload length | uint32 CRC-32C over payload | payload
//	record: int64 unix-nanos | uint64 packed addr | uint8 class | uint16 error bits   (×N)
//
// All integers are little-endian. A frame's payload is a whole number of
// records (at least one, at most MaxWireFrameBytes total). Clean EOF on a
// frame boundary ends the stream; EOF inside a frame is truncation and is
// reported as an error. The CRC is the Castagnoli polynomial (hardware-
// accelerated on amd64/arm64), the same one the WAL uses — a frame's
// payload bytes are exactly what the durable engine journals per event.
// A frame whose CRC verifies is still rejected when any record's packed
// address has bits outside the active layout: Unpack would silently alias
// it onto a different, valid-looking address.
const (
	wireMagic = "CBF2"

	wireFrameHdrSize = 8 // u32 payload length | u32 crc32c(payload)

	// WireRecordSize is the fixed per-event record size, shared with the
	// engine's WAL event records.
	WireRecordSize = 19
)

// MaxWireFrameBytes caps one frame's payload. Decoded lengths are
// attacker-controlled on corrupt input, so the decoder rejects anything
// larger before allocating; encoders flush before reaching it.
const MaxWireFrameBytes = 1 << 20

// wireCRCTable is the Castagnoli polynomial table for frame checksums.
var wireCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWireFrame reports a malformed binary stream: bad magic, an
// implausible length prefix, a checksum mismatch, truncation inside a
// frame, or a packed address outside the active layout. The stream cannot
// be trusted past this point.
var ErrWireFrame = errors.New("mcelog: malformed binary frame")

// AppendWireRecord appends one event's fixed-size record to dst.
func AppendWireRecord(dst []byte, ev Event) []byte {
	var rec [WireRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(ev.Time.UnixNano()))
	binary.LittleEndian.PutUint64(rec[8:16], ev.Addr.Pack())
	rec[16] = byte(ev.Class)
	binary.LittleEndian.PutUint16(rec[17:19], uint16(ev.Bits))
	return append(dst, rec[:]...)
}

// DecodeWireRecord unpacks one fixed-size record and checks nothing:
// FrameDecoder.Next rejects out-of-layout addresses in the frames it
// returns, the WAL replay checks each journal record with CheckWireRecord,
// and callers validate events against their geometry, which subsumes the
// class check.
func DecodeWireRecord(rec []byte) Event {
	_ = rec[WireRecordSize-1]
	return Event{
		Time:  time.Unix(0, int64(binary.LittleEndian.Uint64(rec[0:8]))).UTC(),
		Addr:  hbm.Unpack(binary.LittleEndian.Uint64(rec[8:16])),
		Class: ecc.Class(rec[16]),
		Bits:  ErrBits(binary.LittleEndian.Uint16(rec[17:19])),
	}
}

// WireFrame is a decoded, checksum-verified view over one frame's payload.
// It borrows the decoder's buffer: valid only until the next call to Next
// or Reset.
type WireFrame struct {
	payload []byte
}

// Len returns the number of events in the frame.
func (f WireFrame) Len() int { return len(f.payload) / WireRecordSize }

// Event decodes record i. It allocates nothing.
func (f WireFrame) Event(i int) Event {
	return DecodeWireRecord(f.payload[i*WireRecordSize : (i+1)*WireRecordSize])
}

// FrameDecoder reads a "CBF2" stream frame by frame. The zero value is
// not usable; construct with NewFrameDecoder and reuse across streams via
// Reset — the payload buffer is retained, so steady-state decoding
// allocates nothing (pinned by TestWireDecodeZeroAllocs).
type FrameDecoder struct {
	r      io.Reader
	buf    []byte
	hdr    [wireFrameHdrSize]byte
	opened bool // magic consumed
}

// NewFrameDecoder returns a decoder over r.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	d := &FrameDecoder{}
	d.Reset(r)
	return d
}

// Reset points the decoder at a new stream, keeping its buffers.
func (d *FrameDecoder) Reset(r io.Reader) {
	d.r = r
	d.opened = false
}

// Next returns the next frame. io.EOF means the stream ended cleanly on a
// frame boundary (an entirely empty stream — not even a magic — is also a
// clean end, so a zero-length HTTP body decodes as zero events). Any
// other error wraps ErrWireFrame and poisons the stream.
func (d *FrameDecoder) Next() (WireFrame, error) {
	if !d.opened {
		if _, err := io.ReadFull(d.r, d.hdr[:4]); err != nil {
			if err == io.EOF {
				return WireFrame{}, io.EOF
			}
			return WireFrame{}, fmt.Errorf("%w: truncated magic: %w", ErrWireFrame, err)
		}
		if string(d.hdr[:4]) != wireMagic {
			return WireFrame{}, fmt.Errorf("%w: bad magic %q", ErrWireFrame, d.hdr[:4])
		}
		d.opened = true
	}
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return WireFrame{}, io.EOF // clean end on a frame boundary
		}
		return WireFrame{}, fmt.Errorf("%w: truncated frame header: %w", ErrWireFrame, err)
	}
	length := binary.LittleEndian.Uint32(d.hdr[0:4])
	crc := binary.LittleEndian.Uint32(d.hdr[4:8])
	switch {
	case length == 0:
		return WireFrame{}, fmt.Errorf("%w: empty frame", ErrWireFrame)
	case length > MaxWireFrameBytes:
		return WireFrame{}, fmt.Errorf("%w: frame of %d bytes exceeds max %d", ErrWireFrame, length, MaxWireFrameBytes)
	case length%WireRecordSize != 0:
		return WireFrame{}, fmt.Errorf("%w: frame of %d bytes is not a whole number of %d-byte records", ErrWireFrame, length, WireRecordSize)
	}
	if cap(d.buf) < int(length) {
		d.buf = make([]byte, length)
	}
	d.buf = d.buf[:length]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		// Double-wrap: callers match ErrWireFrame for framing policy and
		// still reach the transport cause (e.g. *http.MaxBytesError → 413).
		return WireFrame{}, fmt.Errorf("%w: truncated payload: %w", ErrWireFrame, err)
	}
	if sum := crc32.Checksum(d.buf, wireCRCTable); sum != crc {
		return WireFrame{}, fmt.Errorf("%w: payload checksum mismatch: computed %#x, stored %#x", ErrWireFrame, sum, crc)
	}
	mask := hbm.ActiveProfile().Layout.Mask()
	for off := 0; off < len(d.buf); off += WireRecordSize {
		if err := checkWireAddr(d.buf[off:], mask); err != nil {
			return WireFrame{}, fmt.Errorf("%w: record %d: %w", ErrWireFrame, off/WireRecordSize, err)
		}
	}
	return WireFrame{payload: d.buf}, nil
}

// CheckWireRecord applies FrameDecoder.Next's layout test to one record:
// it reports an error when the packed address has bits outside the active
// layout (DecodeWireRecord would alias it onto a valid-looking address),
// and allocates nothing when the record passes.
func CheckWireRecord(rec []byte) error {
	return checkWireAddr(rec, hbm.ActiveProfile().Layout.Mask())
}

// checkWireAddr tests the packed address of the record starting at rec
// against a layout mask.
func checkWireAddr(rec []byte, mask uint64) error {
	if v := binary.LittleEndian.Uint64(rec[8:16]); v&^mask != 0 {
		_, err := hbm.UnpackChecked(v)
		return err
	}
	return nil
}

// FrameEncoder writes a "CBF2" stream. Events accumulate into a pending
// frame that is emitted once it holds maxEvents records or on Flush; call
// Flush before trusting that every added event is on the wire.
type FrameEncoder struct {
	w         io.Writer
	buf       []byte // pending frame payload
	hdr       [wireFrameHdrSize]byte
	maxEvents int
	opened    bool
}

// DefaultFrameEvents is the records-per-frame target an encoder uses when
// none is given: large enough to amortise framing and fsync costs, small
// enough that one frame stays well under MaxWireFrameBytes.
const DefaultFrameEvents = 1024

// NewFrameEncoder returns an encoder over w batching maxEvents records
// per frame (0 means DefaultFrameEvents).
func NewFrameEncoder(w io.Writer, maxEvents int) *FrameEncoder {
	if maxEvents <= 0 {
		maxEvents = DefaultFrameEvents
	}
	if max := MaxWireFrameBytes / WireRecordSize; maxEvents > max {
		maxEvents = max
	}
	return &FrameEncoder{w: w, maxEvents: maxEvents}
}

// Reset points the encoder at a new stream, keeping its buffer.
func (e *FrameEncoder) Reset(w io.Writer) {
	e.w = w
	e.buf = e.buf[:0]
	e.opened = false
}

// Add appends one event to the pending frame, flushing it when full.
func (e *FrameEncoder) Add(ev Event) error {
	e.buf = AppendWireRecord(e.buf, ev)
	if len(e.buf) >= e.maxEvents*WireRecordSize {
		return e.Flush()
	}
	return nil
}

// Flush emits the pending frame, if any. The stream magic is written
// lazily with the first frame, so an encoder that never saw an event
// writes nothing at all.
func (e *FrameEncoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	if !e.opened {
		if _, err := io.WriteString(e.w, wireMagic); err != nil {
			return fmt.Errorf("mcelog: writing stream magic: %w", err)
		}
		e.opened = true
	}
	binary.LittleEndian.PutUint32(e.hdr[0:4], uint32(len(e.buf)))
	binary.LittleEndian.PutUint32(e.hdr[4:8], crc32.Checksum(e.buf, wireCRCTable))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		return fmt.Errorf("mcelog: writing frame header: %w", err)
	}
	if _, err := e.w.Write(e.buf); err != nil {
		return fmt.Errorf("mcelog: writing frame payload: %w", err)
	}
	e.buf = e.buf[:0]
	return nil
}
