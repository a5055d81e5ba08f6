package features

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// assertStateEquivalent checks that two states produce bit-identical
// vectors (the codec's contract) and matching bookkeeping.
func assertStateEquivalent(t *testing.T, want, got *BankState, anchor int, now time.Time) {
	t.Helper()
	if want.Events() != got.Events() {
		t.Fatalf("events %d vs %d", want.Events(), got.Events())
	}
	wp, werr := want.PatternVector()
	gp, gerr := got.PatternVector()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("pattern error mismatch: %v vs %v", werr, gerr)
	}
	if werr == nil && !vecBitsEqual(wp, gp) {
		t.Fatalf("pattern vector diverged:\noriginal %v\nrestored %v", wp, gp)
	}
	for b := 0; b < want.spec.NumBlocks(); b++ {
		wb, err1 := want.BlockVector(anchor, b, now)
		gb, err2 := got.BlockVector(anchor, b, now)
		if err1 != nil || err2 != nil {
			t.Fatalf("block %d errors: %v / %v", b, err1, err2)
		}
		if !vecBitsEqual(wb, gb) {
			t.Fatalf("block %d vector diverged:\noriginal %v\nrestored %v", b, wb, gb)
		}
	}
}

// TestBankStateCodecResume is the core durability property: marshal at an
// arbitrary point, decode, feed the identical suffix to both states — every
// vector stays bit-identical all the way.
func TestBankStateCodecResume(t *testing.T) {
	r := xrand.New(97)
	for trial := 0; trial < 15; trial++ {
		n := 5 + r.Intn(60)
		events := make([]mcelog.Event, 0, n)
		now := t0
		for i := 0; i < n; i++ {
			if r.Bool(0.6) {
				now = now.Add(time.Duration(r.Intn(7)) * 11 * time.Minute)
			}
			row := 100 + r.Intn(80)
			class := []ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}[r.Intn(4)]
			events = append(events, mcelog.Event{Time: now, Addr: hbmAddr(row), Class: class})
		}
		cfg := PatternConfig{UERBudget: 1 + r.Intn(4)}
		spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
		cut := r.Intn(n + 1)

		orig, err := NewBankState(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		anchor := 100
		for _, e := range events[:cut] {
			orig.Observe(e)
			if e.Class == ecc.ClassUER {
				anchor = e.Addr.Row
			}
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := UnmarshalBankState(blob)
		if err != nil {
			t.Fatalf("trial %d cut %d: %v", trial, cut, err)
		}
		if restored.Config() != cfg || restored.Spec() != spec {
			t.Fatalf("config/spec lost: %+v %+v", restored.Config(), restored.Spec())
		}
		assertStateEquivalent(t, orig, restored, anchor, now.Add(time.Hour))

		// The restored state must continue exactly like the original.
		for j, e := range events[cut:] {
			orig.Observe(e)
			restored.Observe(e)
			if e.Class == ecc.ClassUER {
				anchor = e.Addr.Row
			}
			assertStateEquivalent(t, orig, restored, anchor, e.Time.Add(30*time.Minute))
			_ = j
		}

		// Determinism: both states now encode to identical bytes.
		b1, _ := orig.MarshalBinary()
		b2, _ := restored.MarshalBinary()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("trial %d: re-encoded states differ", trial)
		}
	}
}

func TestBankStateCodecFreshState(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), BlockSpec{WindowRadius: 8, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBankState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.PatternVector(); err == nil {
		t.Error("restored fresh state has a pattern vector before any UER")
	}
	assertStateEquivalent(t, st, got, 0, t0)
	if got.lastTime != (time.Time{}) || !got.cutoff.IsZero() {
		t.Error("zero times did not survive the round trip")
	}
}

// TestBankStateCodecCorruptInput: truncations and bit flips error out
// cleanly — never panic, never return an insane state.
func TestBankStateCodecCorruptInput(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), BlockSpec{WindowRadius: 8, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		class := ecc.ClassCE
		if i%7 == 0 {
			class = ecc.ClassUER
		}
		st.Observe(mcelog.Event{Time: t0.Add(time.Duration(i) * time.Minute), Addr: hbmAddr(200 + i%16), Class: class})
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBankState(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	// Every truncation must fail (the format has no optional tail).
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalBankState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := UnmarshalBankState(append(append([]byte(nil), blob...), 0xAB)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Flipping the version or magic fails.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := UnmarshalBankState(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := UnmarshalBankState(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// A huge length written over any 8 bytes must fail without sizing an
	// allocation by it: lengths are bounded by the bytes left.
	var before, after runtime.MemStats
	for off := 5; off+8 <= len(blob); off++ {
		bad = append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[off:], 1<<24-1)
		runtime.ReadMemStats(&before)
		_, _ = UnmarshalBankState(bad)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(blob)+4096) {
			t.Fatalf("a length of 1<<24 at offset %d made a %d-byte blob allocate %d bytes", off, len(blob), grew)
		}
	}
	// Random bit flips: decode may succeed (flips in float payloads are
	// legal values) but must never panic; a length-field flip must error.
	r := xrand.New(5)
	for trial := 0; trial < 200; trial++ {
		bad = append([]byte(nil), blob...)
		bad[5+r.Intn(len(bad)-5)] ^= byte(1 << r.Intn(8))
		_, _ = UnmarshalBankState(bad)
	}
}
