package mcelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

func TestJSONLRoundTrip(t *testing.T) {
	l := FromEvents(randomEvents(200, 3))
	l.Sort()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// ReadLog reads anything without the CBF2 magic as JSON Lines.
	viaLog, err := ReadLog(bytes.NewReader(buf.Bytes()), hbm.DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, viaLog.Events(), l.Events())
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), l.Len())
	}
	for i := 0; i < l.Len(); i++ {
		want, have := l.At(i), got.At(i)
		if !want.Time.Equal(have.Time) || want.Addr != have.Addr || want.Class != have.Class {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, want, have)
		}
	}
}

func TestJSONLEmpty(t *testing.T) {
	var l Log
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip len = %d", got.Len())
	}
}

func TestParseJSONEvent(t *testing.T) {
	l := FromEvents(randomEvents(20, 3))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		got, err := ParseJSONEvent([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := l.At(i)
		if !got.Time.Equal(want.Time) || got.Addr != want.Addr || got.Class != want.Class {
			t.Fatalf("line %d: %+v != %+v", i, got, want)
		}
	}
	for _, bad := range []string{
		"",
		"not json",
		`{"time":"2026-01-01T00:00:00Z","addr":"bogus","class":"CE"}`,
		`{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"??"}`,
		`{"addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"CE"}`,
	} {
		if _, err := ParseJSONEvent([]byte(bad)); err == nil {
			t.Errorf("ParseJSONEvent(%q) accepted", bad)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"not json at all",
		`{"time":"2025-01-01T00:00:00Z","addr":"bogus","class":"CE"}`,
		`{"time":"2025-01-01T00:00:00Z","addr":"n1.u2.h1.s0.c5.p1.g2.b3.r1.col8","class":"WAT"}`,
		// Timestamps HTTP ingest rejects must not be admitted from a file.
		`{"time":"0001-01-01T00:00:00Z","addr":"n1.u2.h1.s0.c5.p1.g2.b3.r1.col8","class":"CE"}`,
		`{"time":"2300-01-01T00:00:00Z","addr":"n1.u2.h1.s0.c5.p1.g2.b3.r1.col8","class":"UER"}`,
	} {
		if _, err := ReadJSONL(strings.NewReader(s)); err == nil {
			t.Errorf("ReadJSONL accepted %q", s)
		}
		if _, err := ReadLog(strings.NewReader(s), hbm.DefaultGeometry); err == nil {
			t.Errorf("ReadLog accepted %q", s)
		}
	}
}

// sameEvents fails the test unless got and want hold identical events.
func sameEvents(t testing.TB, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) || got[i].Addr != want[i].Addr ||
			got[i].Class != want[i].Class || got[i].Bits != want[i].Bits {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestBinaryRoundTrip: a CBF2 file reads back through ReadLog event for
// event, error bits included.
func TestBinaryRoundTrip(t *testing.T) {
	l := FromEvents(randomEvents(500, 4))
	l.Sort()
	events := l.Events()
	for i := range events {
		events[i].Bits = MakeErrBits(uint8(i), uint8(i>>3))
	}
	got, err := ReadLog(bytes.NewReader(encodeWireStream(t, events, 64)), hbm.DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, got.Events(), events)
}

// TestBinaryEmpty: an empty file and a magic-only file are both empty logs.
func TestBinaryEmpty(t *testing.T) {
	for _, data := range [][]byte{nil, []byte(wireMagic)} {
		got, err := ReadLog(bytes.NewReader(data), hbm.DefaultGeometry)
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		if got.Len() != 0 {
			t.Fatalf("%q: read %d events", data, got.Len())
		}
	}
}

// TestBinaryDetectsTruncation: a cut inside the magic, a frame header or a
// payload is an error. (A cut exactly on a frame boundary is a clean end:
// frames are the unit of atomicity.)
func TestBinaryDetectsTruncation(t *testing.T) {
	const frameEvents = 16
	full := encodeWireStream(t, randomEvents(50, 5), frameEvents)
	frameBytes := wireFrameHdrSize + frameEvents*WireRecordSize
	for _, cut := range []int{3, 9, 11, 40, len(full) - 1} {
		if (cut-len(wireMagic))%frameBytes == 0 {
			t.Fatalf("cut %d is a frame boundary", cut)
		}
		if _, err := ReadLog(bytes.NewReader(full[:cut]), hbm.DefaultGeometry); err == nil {
			t.Errorf("truncation at %d bytes went undetected", cut)
		}
	}
}

// TestBinaryDetectsCorruption: a flipped payload byte fails the frame CRC.
func TestBinaryDetectsCorruption(t *testing.T) {
	data := encodeWireStream(t, randomEvents(50, 6), 0)
	// Byte 2 of record 0's timestamp, after the magic and frame header.
	data[len(wireMagic)+wireFrameHdrSize+2] ^= 0xff
	if _, err := ReadLog(bytes.NewReader(data), hbm.DefaultGeometry); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("corrupted file: got %v, want ErrWireFrame", err)
	}
}

// TestBinaryRejectsBadMagicAndVersion: any other magic (including the
// retired CBF1) is not a frame stream, and fails as JSON Lines.
func TestBinaryRejectsBadMagicAndVersion(t *testing.T) {
	data := encodeWireStream(t, randomEvents(5, 7), 0)
	for _, magic := range []string{"XBF2", "CBF1", "CBF3"} {
		bad := append([]byte(magic), data[len(wireMagic):]...)
		if _, err := ReadLog(bytes.NewReader(bad), hbm.DefaultGeometry); err == nil {
			t.Errorf("magic %q accepted", magic)
		}
	}
}

// TestBinaryRejectsInvalidClassByte: a record whose CRC is valid but whose
// class byte is junk is refused by ReadLog's per-event validation.
func TestBinaryRejectsInvalidClassByte(t *testing.T) {
	events := randomEvents(3, 8)
	events[1].Class = ecc.Class(0xEE)
	if _, err := ReadLog(bytes.NewReader(encodeWireStream(t, events, 0)), hbm.DefaultGeometry); err == nil {
		t.Fatal("invalid class byte accepted")
	}
}

// TestReadLogRejectsStrayAddressBits: a CRC-valid record whose packed
// address has a bit outside the layout would alias onto a valid address
// under Unpack; the frame decoder refuses it instead.
func TestReadLogRejectsStrayAddressBits(t *testing.T) {
	events := randomEvents(4, 11)
	payload := AppendWireRecord(nil, events[0])
	rec := AppendWireRecord(nil, events[1])
	binary.LittleEndian.PutUint64(rec[8:16], events[1].Addr.Pack()|1<<63)
	if DecodeWireRecord(rec).Validate(hbm.DefaultGeometry) != nil {
		t.Fatal("aliased record fails validation; the test no longer probes the alias")
	}
	payload = append(payload, rec...)
	data := append([]byte(wireMagic), encodeFrame(payload)...)
	if _, err := ReadLog(bytes.NewReader(data), hbm.DefaultGeometry); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("stray address bit: got %v, want ErrWireFrame", err)
	}
}

// TestReadLogValidatesEvents: an event outside the geometry is refused in
// either format, as HTTP ingest would refuse it.
func TestReadLogValidatesEvents(t *testing.T) {
	events := randomEvents(3, 12)
	events[2].Addr.Row = hbm.DefaultGeometry.RowsPerBank // one past the last row
	if _, err := ReadLog(bytes.NewReader(encodeWireStream(t, events, 0)), hbm.DefaultGeometry); err == nil {
		t.Error("out-of-geometry wire record accepted")
	}
	var buf bytes.Buffer
	if err := FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(&buf, hbm.DefaultGeometry); err == nil {
		t.Error("out-of-geometry JSONL line accepted")
	}
}

func TestBinaryMoreCompactThanJSONL(t *testing.T) {
	l := FromEvents(randomEvents(1000, 9))
	var jb bytes.Buffer
	if err := l.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if wb := encodeWireStream(t, l.Events(), 0); len(wb) >= jb.Len() {
		t.Fatalf("binary (%d bytes) not smaller than JSONL (%d bytes)", len(wb), jb.Len())
	}
}

func BenchmarkReadLog(b *testing.B) {
	data := encodeWireStream(b, randomEvents(10000, 10), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLog(bytes.NewReader(data), hbm.DefaultGeometry); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinaryHostileCountDoesNotOOM: a frame header claiming a huge payload
// is refused before anything is allocated for it.
func TestBinaryHostileCountDoesNotOOM(t *testing.T) {
	data := encodeWireStream(t, randomEvents(3, 99), 0)
	binary.LittleEndian.PutUint32(data[len(wireMagic):], 0x7fffffff)
	if _, err := ReadLog(bytes.NewReader(data), hbm.DefaultGeometry); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("hostile frame length: got %v, want ErrWireFrame", err)
	}
}
