package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// segmentImage builds a segment file image: header, then one frame per
// payload under consecutive LSNs from first. ends[i] is the byte offset
// just past frame i.
func segmentImage(first uint64, payloads ...[]byte) (img []byte, ends []int) {
	img = append(img, segMagic...)
	img = binary.LittleEndian.AppendUint16(img, segVersion)
	img = binary.LittleEndian.AppendUint16(img, 0)
	for i, p := range payloads {
		var lsn [8]byte
		binary.LittleEndian.PutUint64(lsn[:], first+uint64(i))
		sum := crc32.Update(0, crcTable, lsn[:])
		sum = crc32.Update(sum, crcTable, p)
		img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
		img = binary.LittleEndian.AppendUint32(img, sum)
		img = append(img, lsn[:]...)
		img = append(img, p...)
		ends = append(ends, len(img))
	}
	return img, ends
}

// refReadRecord is the frame-at-a-time reader the buffered one replaced:
// two io.ReadFull calls per record. It is the reference the table below
// holds recordReader to.
func refReadRecord(r io.Reader) (lsn uint64, size int64, ok bool) {
	var hdr [recHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, false
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length > MaxRecordBytes {
		return 0, 0, false
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, false
	}
	sum := crc32.Update(0, crcTable, hdr[8:16])
	sum = crc32.Update(sum, crcTable, payload)
	if sum != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), int64(recHdrSize) + int64(length), true
}

// refScan is the reference scanSegment over an in-memory image.
func refScan(img []byte) (lastLSN uint64, validSize int64) {
	r := bytes.NewReader(img)
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, -1
	}
	if string(hdr[:4]) != segMagic || binary.LittleEndian.Uint16(hdr[4:6]) != segVersion {
		return 0, -1
	}
	validSize = segHdrSize
	for {
		lsn, n, ok := refReadRecord(r)
		if !ok {
			return lastLSN, validSize
		}
		lastLSN, validSize = lsn, validSize+n
	}
}

// refReplay is the reference replaySegment: the LSNs handed to fn and the
// error, where a bad frame is a clean end only if a one-byte probe after it
// hits EOF.
func refReplay(img []byte, horizon uint64) (lsns []uint64, err error) {
	r := bytes.NewReader(img)
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: %w: segment header unreadable", ErrCorrupt)
	}
	if string(hdr[:4]) != segMagic || binary.LittleEndian.Uint16(hdr[4:6]) != segVersion {
		return nil, fmt.Errorf("wal: %w: bad segment magic/version", ErrCorrupt)
	}
	for {
		lsn, _, ok := refReadRecord(r)
		if !ok {
			var b [1]byte
			if _, err := r.Read(b[:]); err == io.EOF {
				return lsns, nil
			}
			return lsns, ErrCorrupt
		}
		if lsn >= horizon {
			return lsns, nil
		}
		lsns = append(lsns, lsn)
	}
}

// TestRecordReaderMatchesReference: the buffered segment reader must find
// the same torn-tail offset (scanSegment) and return the same records and
// error (replaySegment) as the frame-at-a-time reader on every damaged
// shape, through whole reads and through short reads alike.
func TestRecordReaderMatchesReference(t *testing.T) {
	small := func(i int) []byte { return []byte(fmt.Sprintf("event-record-%03d", i)) }
	clean, ends := segmentImage(1, small(0), small(1), small(2), small(3), small(4))

	flip := func(img []byte, off int) []byte {
		out := append([]byte(nil), img...)
		out[off] ^= 0x40
		return out
	}
	// Frames sized so that one straddles the read-buffer boundary, plus one
	// larger than the whole buffer (the grow path).
	straddle, sEnds := segmentImage(10,
		bytes.Repeat([]byte{'a'}, readBufSize-segHdrSize-recHdrSize-100),
		bytes.Repeat([]byte{'b'}, 300),
		bytes.Repeat([]byte{'c'}, 2*readBufSize),
		small(9))
	if sEnds[0] >= readBufSize || sEnds[1] <= readBufSize {
		t.Fatalf("straddle frame spans [%d,%d), want it across %d", sEnds[0], sEnds[1], readBufSize)
	}
	badLen := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(badLen[ends[1]:], MaxRecordBytes+1)

	cases := []struct {
		name       string
		img        []byte
		wantSize   int64 // scanSegment's validSize
		wantLast   uint64
		wantLSNs   int   // records replaySegment hands to fn
		wantReplay error // nil or ErrCorrupt
	}{
		{"clean", clean, int64(len(clean)), 5, 5, nil},
		{"header only", clean[:segHdrSize], segHdrSize, 0, 0, nil},
		{"short segment header", clean[:5], -1, 0, 0, ErrCorrupt},
		{"bad magic", flip(clean, 0), -1, 0, 0, ErrCorrupt},
		{"torn last header", clean[:ends[3]+7], int64(ends[3]), 4, 4, nil},
		{"torn payload", clean[:ends[4]-3], int64(ends[3]), 4, 4, nil},
		{"crc flip mid-segment", flip(clean, ends[1]+recHdrSize+2), int64(ends[1]), 2, 2, ErrCorrupt},
		{"crc flip in last record", flip(clean, ends[4]-1), int64(ends[3]), 4, 4, nil},
		{"implausible length mid-segment", badLen, int64(ends[1]), 2, 2, ErrCorrupt},
		{"frames across the buffer boundary", straddle, int64(len(straddle)), 13, 4, nil},
		{"torn frame across the buffer boundary", straddle[:sEnds[0]+200], int64(sEnds[0]), 10, 1, nil},
	}
	for _, tc := range cases {
		for _, shortRead := range []int{0, 7} {
			t.Run(fmt.Sprintf("%s/short=%d", tc.name, shortRead), func(t *testing.T) {
				refLast, refSize := refScan(tc.img)
				if refLast != tc.wantLast || refSize != tc.wantSize {
					t.Fatalf("reference scan = (%d, %d), case expects (%d, %d)", refLast, refSize, tc.wantLast, tc.wantSize)
				}
				refLSNs, refErr := refReplay(tc.img, ^uint64(0))
				if len(refLSNs) != tc.wantLSNs || !errors.Is(refErr, tc.wantReplay) && refErr != tc.wantReplay {
					t.Fatalf("reference replay = (%d records, %v), case expects (%d, %v)", len(refLSNs), refErr, tc.wantLSNs, tc.wantReplay)
				}

				dir := t.TempDir()
				path := filepath.Join(dir, segName(1))
				if err := os.WriteFile(path, tc.img, 0o644); err != nil {
					t.Fatal(err)
				}
				fs := NewFaultFS(OSFS)
				fs.ShortReads(shortRead)
				last, size, err := scanSegment(fs, path, 1)
				if err != nil {
					t.Fatal(err)
				}
				if last != refLast || size != refSize {
					t.Fatalf("scanSegment = (%d, %d), reference (%d, %d)", last, size, refLast, refSize)
				}

				f, err := fs.OpenFile(path, os.O_RDONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var lsns []uint64
				err = replaySegment(newRecordReader(f), ^uint64(0), func(lsn uint64, _ []byte) error {
					lsns = append(lsns, lsn)
					return nil
				})
				if fmt.Sprint(lsns) != fmt.Sprint(refLSNs) {
					t.Fatalf("replaySegment handed LSNs %v, reference %v", lsns, refLSNs)
				}
				if fmt.Sprint(err) != fmt.Sprint(refErr) || errors.Is(err, ErrCorrupt) != errors.Is(refErr, ErrCorrupt) {
					t.Fatalf("replaySegment error %v, reference %v", err, refErr)
				}
			})
		}
	}
}

// TestReplayPayloadsIntactAcrossSegments: payloads handed to Replay are
// views of the read buffer; each must hold its own record's bytes during
// the call, across buffer refills and segment changes.
func TestReplayPayloadsIntactAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 0, 3000)
	for i := 0; i < cap(want); i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i%200)
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if w.Segments() < 3 {
		t.Fatalf("journal spans %d segments, want several", w.Segments())
	}
	i := 0
	err = w.Replay(func(lsn uint64, p []byte) error {
		if lsn != uint64(i+1) || !bytes.Equal(p, want[i]) {
			return fmt.Errorf("record %d: lsn %d, %d bytes, want lsn %d, %d bytes", i, lsn, len(p), i+1, len(want[i]))
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("replayed %d records, want %d", i, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSnapshotSizedRead: ReadSnapshot reads the file in one sized
// read, refuses a file larger than any valid snapshot before reading it,
// and still detects a truncated file.
func TestReadSnapshotSizedRead(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("snapshot"), 5000)
	path, err := WriteSnapshot(nil, dir, 3, payload)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultFS(OSFS)
	fs.ShortReads(1000)
	seq, got, err := ReadSnapshot(fs, path)
	if err != nil || seq != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("ReadSnapshot = (%d, %d bytes, %v), want (3, %d bytes, nil)", seq, len(got), err, len(payload))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(nil, path); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	big := filepath.Join(dir, snapName(4))
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(MaxSnapshotBytes + snapHdrSize + 5); err != nil {
		f.Close()
		t.Skipf("sparse file unsupported: %v", err)
	}
	f.Close()
	if _, _, err := ReadSnapshot(nil, big); err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}
