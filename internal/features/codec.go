package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// Binary codec for BankState, the payload format of the online engine's
// snapshots. The encoding is exhaustive and exact: every accumulator field
// round-trips bit-for-bit (float64 via IEEE bits, time.Time as seconds +
// nanoseconds so the zero value and sub-second precision both survive), so
// a restored state continues producing vectors bit-identical to the state
// that was encoded — the property the crash≡no-crash equivalence tests
// pin. The format is versioned; decoding a newer or unknown version fails
// cleanly rather than misinterpreting bytes. Version 2 appends the
// error-bit accumulator; version 1 snapshots still decode, with the
// accumulator empty (their events carried no error bits).
const (
	bankStateMagic     = "CBNK"
	bankStateVersion   = 2
	bankStateVersionV1 = 1
)

// enc is a little-endian append-only encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8) { e.b = append(e.b, v) }
func (e *enc) bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}
func (e *enc) i64(v int64)   { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) time(t time.Time) {
	e.i64(t.Unix())
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(t.Nanosecond()))
}
func (e *enc) ints(v []int) {
	e.int(len(v))
	for _, x := range v {
		e.int(x)
	}
}
func (e *enc) accum(a *seqAccum) {
	e.int(a.count)
	e.int(a.lastRow)
	e.time(a.lastTime)
	for _, f := range []float64{a.rowMin, a.rowMax, a.rowDiffMin, a.rowDiffMax, a.rowDiffSum, a.dtMin, a.dtMax, a.dtSum} {
		e.f64(f)
	}
}
func (e *enc) accums(p *patternAccums) {
	e.accum(&p.ce)
	e.accum(&p.ueo)
	e.accum(&p.uer)
	e.accum(&p.all)
}

// dec is the matching cursor-based decoder; the first failure sticks.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("features: decoding bank state: "+format, args...)
	}
}
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated at offset %d (need %d of %d bytes)", d.off, n, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}
func (d *dec) u8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}
func (d *dec) bool() bool { return d.u8() != 0 }
func (d *dec) i64() int64 {
	if s := d.take(8); s != nil {
		return int64(binary.LittleEndian.Uint64(s))
	}
	return 0
}
func (d *dec) int() int { return int(d.i64()) }
func (d *dec) f64() float64 {
	if s := d.take(8); s != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s))
	}
	return 0
}
func (d *dec) time() time.Time {
	sec := d.i64()
	var nsec uint32
	if s := d.take(4); s != nil {
		nsec = binary.LittleEndian.Uint32(s)
	}
	if d.err != nil {
		return time.Time{}
	}
	if sec == timeZeroSec && nsec == 0 {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count decodes a collection length, bounded by the bytes left: every
// element encodes in at least 8 bytes, so a corrupt length fails here
// instead of sizing an allocation beyond the input.
func (d *dec) count() int {
	n := d.i64()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(d.b)-d.off)/8 {
		d.fail("collection length %d exceeds the %d bytes left", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}
func (d *dec) ints() []int {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	if d.err != nil {
		return nil
	}
	return out
}
func (d *dec) accum(a *seqAccum) {
	a.count = d.int()
	a.lastRow = d.int()
	a.lastTime = d.time()
	a.rowMin, a.rowMax = d.f64(), d.f64()
	a.rowDiffMin, a.rowDiffMax, a.rowDiffSum = d.f64(), d.f64(), d.f64()
	a.dtMin, a.dtMax, a.dtSum = d.f64(), d.f64(), d.f64()
}
func (d *dec) accums(p *patternAccums) {
	d.accum(&p.ce)
	d.accum(&p.ueo)
	d.accum(&p.uer)
	d.accum(&p.all)
}

// timeZeroSec is time.Time{}.Unix(): the sentinel pair (timeZeroSec, 0)
// encodes the zero time so IsZero survives the round trip.
var timeZeroSec = time.Time{}.Unix()

// MarshalBinary encodes the full state. The result is self-describing
// (magic + version) and decodable by UnmarshalBankState.
func (s *BankState) MarshalBinary() ([]byte, error) {
	e := &enc{b: make([]byte, 0, 1024)}
	e.b = append(e.b, bankStateMagic...)
	e.u8(bankStateVersion)

	e.int(s.cfg.UERBudget)
	e.int(s.spec.WindowRadius)
	e.int(s.spec.BlockSize)
	e.int(s.events)

	e.accums(&s.committed)
	e.accums(&s.staged)
	e.ints(s.budgetRows)
	e.bool(s.budgetSeen != nil)
	if s.budgetSeen != nil {
		rows := make([]int, 0, len(s.budgetSeen))
		for r := range s.budgetSeen {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		e.ints(rows)
	}
	e.time(s.cutoff)
	e.bool(s.budgetDone)

	e.bool(s.haveFirstEvent)
	e.time(s.firstEventTime)
	e.bool(s.haveUER)
	e.time(s.firstUERTime)
	e.int(s.ceBefore)
	e.int(s.ueoBefore)
	e.int(s.ceTotal)
	e.int(s.ueoTotal)
	e.time(s.runTime)
	e.int(s.ceAtRun)
	e.int(s.ueoAtRun)

	e.accum(&s.blkCE)
	e.accum(&s.blkUEO)
	e.accum(&s.blkUER)
	e.f64(s.ceRowSum)
	e.f64(s.uerRowSum)
	e.ints(s.ceRows.rows)
	e.ints(s.ueoRows.rows)
	e.ints(s.uerRows.rows)
	e.bool(s.rowCounts != nil)
	if s.rowCounts != nil {
		rows := make([]int, 0, len(s.rowCounts))
		for r := range s.rowCounts {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		e.int(len(rows))
		for _, r := range rows {
			rc := s.rowCounts[r]
			e.int(r)
			e.int(rc.total)
			e.int(rc.uer)
		}
	}
	e.time(s.lastTime)

	e.int(s.errBits.count)
	e.u8(s.errBits.dqUnion)
	e.u8(s.errBits.burstUnion)
	for _, c := range s.errBits.dqPinCounts {
		e.int(c)
	}
	e.int(s.errBits.dqPopSum)
	e.int(s.errBits.burstPopSum)
	return e.b, nil
}

// UnmarshalBankState decodes a state produced by MarshalBinary. Corrupt or
// truncated input returns an error, never a panic.
func UnmarshalBankState(data []byte) (*BankState, error) {
	if len(data) < len(bankStateMagic)+1 {
		return nil, fmt.Errorf("features: bank state too short (%d bytes)", len(data))
	}
	if string(data[:4]) != bankStateMagic {
		return nil, fmt.Errorf("features: bad bank state magic")
	}
	version := data[4]
	if version != bankStateVersion && version != bankStateVersionV1 {
		return nil, fmt.Errorf("features: unsupported bank state version %d", version)
	}
	d := &dec{b: data, off: 5}
	s := &BankState{}
	s.cfg.UERBudget = d.int()
	s.spec.WindowRadius = d.int()
	s.spec.BlockSize = d.int()
	s.events = d.int()

	d.accums(&s.committed)
	d.accums(&s.staged)
	s.budgetRows = d.ints()
	if d.bool() {
		rows := d.ints()
		s.budgetSeen = make(map[int]bool, len(rows))
		for _, r := range rows {
			s.budgetSeen[r] = true
		}
	}
	s.cutoff = d.time()
	s.budgetDone = d.bool()

	s.haveFirstEvent = d.bool()
	s.firstEventTime = d.time()
	s.haveUER = d.bool()
	s.firstUERTime = d.time()
	s.ceBefore = d.int()
	s.ueoBefore = d.int()
	s.ceTotal = d.int()
	s.ueoTotal = d.int()
	s.runTime = d.time()
	s.ceAtRun = d.int()
	s.ueoAtRun = d.int()

	d.accum(&s.blkCE)
	d.accum(&s.blkUEO)
	d.accum(&s.blkUER)
	s.ceRowSum = d.f64()
	s.uerRowSum = d.f64()
	s.ceRows.rows = d.ints()
	s.ueoRows.rows = d.ints()
	s.uerRows.rows = d.ints()
	if d.bool() {
		n := d.count()
		s.rowCounts = make(map[int]blockRowCount, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := d.int()
			s.rowCounts[r] = blockRowCount{total: d.int(), uer: d.int()}
		}
	}
	s.lastTime = d.time()

	if version >= bankStateVersion {
		s.errBits.count = d.int()
		s.errBits.dqUnion = d.u8()
		s.errBits.burstUnion = d.u8()
		for i := range s.errBits.dqPinCounts {
			s.errBits.dqPinCounts[i] = d.int()
		}
		s.errBits.dqPopSum = d.int()
		s.errBits.burstPopSum = d.int()
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("features: %d trailing bytes after bank state", len(data)-d.off)
	}
	if s.cfg.UERBudget <= 0 {
		return nil, fmt.Errorf("features: decoded non-positive UER budget %d", s.cfg.UERBudget)
	}
	if err := s.spec.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the pattern config the state was created with.
func (s *BankState) Config() PatternConfig { return s.cfg }

// Spec returns the block spec the state was created with.
func (s *BankState) Spec() BlockSpec { return s.spec }
