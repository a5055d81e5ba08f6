package mcelog

import (
	"bytes"
	"testing"
	"testing/iotest"

	"cordial/internal/hbm"
)

// FuzzReadLog verifies the file reader never panics, admits only events
// that validate, and never silently accepts input as a different log:
// whatever it accepts must survive a FrameEncoder → ReadLog round trip.
func FuzzReadLog(f *testing.F) {
	g := hbm.DefaultGeometry
	var wire bytes.Buffer
	enc := NewFrameEncoder(&wire, 4)
	for _, e := range randomEvents(10, 1) {
		if err := enc.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := wire.Bytes()
	f.Add(valid)
	f.Add(valid[:5])
	f.Add([]byte{})
	f.Add([]byte(wireMagic))
	mutated := append([]byte{}, valid...)
	mutated[14] ^= 0xff
	f.Add(mutated)
	var jsonl bytes.Buffer
	if err := FromEvents(randomEvents(5, 3)).WriteJSONL(&jsonl); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add(jsonl.Bytes()[:10])
	f.Add([]byte("CBF1\x01\x00"))
	stray := AppendWireRecord(nil, randomEvents(1, 4)[0])
	stray[15] |= 0x80 // packed-address bit 63: outside every layout
	f.Add(append([]byte(wireMagic), encodeFrame(stray)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadLog(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		for i, ev := range log.Events() {
			if err := ev.Validate(g); err != nil {
				t.Fatalf("accepted event %d fails validation: %v", i, err)
			}
		}
		var out bytes.Buffer
		enc := NewFrameEncoder(&out, 0)
		for _, ev := range log.Events() {
			if err := enc.Add(ev); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadLog(&out, g)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		sameEvents(t, again.Events(), log.Events())
	})
}

// FuzzReadBinary verifies that ReadLog on a CBF2 file agrees with the frame
// decoder: it accepts exactly when every frame decodes and every event
// validates, and then returns exactly the decoded events.
func FuzzReadBinary(f *testing.F) {
	var wire bytes.Buffer
	enc := NewFrameEncoder(&wire, 4)
	for _, e := range randomEvents(10, 1) {
		if err := enc.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := wire.Bytes()
	f.Add(valid)
	f.Add(valid[:5])
	f.Add([]byte{})
	f.Add([]byte(wireMagic))
	mutated := append([]byte{}, valid...)
	mutated[14] ^= 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && !bytes.HasPrefix(data, []byte(wireMagic)) {
			return // not a frame file: ReadLog reads it as JSON Lines
		}
		g := hbm.DefaultGeometry
		want, err := decodeFrames(bytes.NewReader(data))
		for i := 0; err == nil && i < len(want); i++ {
			err = want[i].Validate(g)
		}
		log, rerr := ReadLog(bytes.NewReader(data), g)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ReadLog error %v, decoder+Validate error %v", rerr, err)
		}
		if rerr == nil {
			sameEvents(t, log.Events(), want)
		}
	})
}

// FuzzStreamReader verifies the frame decoder never panics, decodes the
// same events however its reads are chunked, and preserves the valid prefix
// of torn streams.
func FuzzStreamReader(f *testing.F) {
	var wire bytes.Buffer
	enc := NewFrameEncoder(&wire, 1)
	for _, e := range randomEvents(5, 3) {
		if err := enc.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := wire.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte(wireMagic + "\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		full, err := decodeFrames(bytes.NewReader(data))
		bytewise, berr := decodeFrames(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (berr == nil) {
			t.Fatalf("whole-buffer error %v, byte-at-a-time error %v", err, berr)
		}
		sameEvents(t, bytewise, full)
		torn, _ := decodeFrames(bytes.NewReader(data[:len(data)/2]))
		if len(torn) > len(full) {
			t.Fatalf("torn half decoded %d events, whole stream %d", len(torn), len(full))
		}
		sameEvents(t, torn, full[:len(torn)])
	})
}

// FuzzReadJSONL verifies the JSONL codec never panics.
func FuzzReadJSONL(f *testing.F) {
	l := FromEvents(randomEvents(5, 2))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"time":"2025-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	// Poisoned-timestamp seeds: zero, pre-epoch and far-future times that
	// the ingest-path validation (ValidateTime) must reject without panic.
	f.Add([]byte(`{"time":"0001-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{"time":"1969-07-20T20:17:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{"time":"2300-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"UER"}`))
	// Out-of-geometry address seed.
	f.Add([]byte(`{"time":"2025-01-01T00:00:00Z","addr":"n999.u99.h9.s9.c99.p9.g9.b9.r99999999.col9999","class":"CE"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := log.WriteJSONL(&out); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
	})
}
