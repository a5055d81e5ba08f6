package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes through both untrusted-input decoders
// — the record framer and the snapshot decoder. Corrupt, truncated, or
// adversarial input must produce an error or a clean "no record", never a
// panic or an over-allocation.
func FuzzWALDecode(f *testing.F) {
	// Seed with a well-formed record frame...
	payload := []byte("seed-record")
	var lsnb [8]byte
	binary.LittleEndian.PutUint64(lsnb[:], 42)
	sum := crc32.Update(0, crcTable, lsnb[:])
	sum = crc32.Update(sum, crcTable, payload)
	frame := make([]byte, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], sum)
	copy(frame[8:16], lsnb[:])
	copy(frame[recHdrSize:], payload)
	f.Add(frame)

	// ...a well-formed snapshot image...
	snap := make([]byte, snapHdrSize)
	copy(snap[:4], snapMagic)
	binary.LittleEndian.PutUint16(snap[4:6], snapVersion)
	binary.LittleEndian.PutUint64(snap[8:16], 7)
	binary.LittleEndian.PutUint64(snap[16:24], uint64(len(payload)))
	snap = append(snap, payload...)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(snap, crcTable))
	snap = append(snap, tail[:]...)
	f.Add(snap)

	// ...and some degenerate shapes.
	f.Add([]byte{})
	f.Add([]byte("CSNP"))
	f.Add(bytes.Repeat([]byte{0xff}, recHdrSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, payload, ok := newRecordReader(bytes.NewReader(data)).next()
		if ok {
			// A frame that validates must re-verify against its own CRC.
			var lb [8]byte
			binary.LittleEndian.PutUint64(lb[:], lsn)
			s := crc32.Update(0, crcTable, lb[:])
			s = crc32.Update(s, crcTable, payload)
			if len(data) >= 8 && s != binary.LittleEndian.Uint32(data[4:8]) {
				t.Fatalf("next accepted a frame whose CRC does not verify")
			}
		}

		if _, p, err := DecodeSnapshot(data); err == nil {
			// Accepted payload must round-trip through the writer's CRC.
			if len(p) > len(data) {
				t.Fatalf("DecodeSnapshot returned payload longer than input")
			}
		}
	})
}
