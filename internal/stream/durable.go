package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/wal"
)

// walJournal keeps the Engine field readable next to the wal package name.
type walJournal = wal.WAL

// DurabilityConfig configures the engine's WAL + snapshot layer.
//
// The durability contract: once Ingest returns nil the event is journaled
// (on stable storage under SyncAlways), and after a crash the engine
// rebuilds the exact same per-bank state by restoring the newest valid
// snapshot and replaying the journal suffix. Per-session LSN watermarks
// make the replay idempotent, so the reconstruction is bit-identical to an
// uninterrupted run — pinned by TestCrashRecoveryEquivalence.
type DurabilityConfig struct {
	// Dir is the journal + snapshot directory. Empty disables durability.
	Dir string
	// FS overrides the filesystem (fault-injection tests); nil means the
	// real one.
	FS wal.FS
	// Sync is the journal fsync policy (default SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the flush interval under SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes is the journal segment rotation size (0 = 8 MiB).
	SegmentBytes int64
	// SnapshotKeep is how many snapshot files to retain (0 = 3).
	SnapshotKeep int
}

func (d DurabilityConfig) keep() int {
	if d.SnapshotKeep < 1 {
		return 3
	}
	return d.SnapshotKeep
}

// DeadLetter is one quarantined event as written to the dead-letter file
// (one JSON object per line).
type DeadLetter struct {
	// Time is the event's timestamp.
	Time time.Time `json:"time"`
	// Bank and Addr identify where the event landed (Addr is the packed
	// physical address, reversible with hbm.Unpack).
	Bank string `json:"bank"`
	Addr uint64 `json:"addr"`
	Row  int    `json:"row"`
	// Class is the event's ECC class.
	Class string `json:"class"`
	// LSN is the event's journal position (0 without durability).
	LSN uint64 `json:"lsn,omitempty"`
	// Reason is the recovered panic value.
	Reason string `json:"reason"`
}

// quarantine counts a poisoned event (on its shard's counter) and
// preserves it in the dead-letter file. Runs outside the shard lock; file
// errors are swallowed (losing a dead-letter line must not take down
// processing).
func (e *Engine) quarantine(s *shard, d *DeadLetter) {
	s.quarantined.Inc()
	e.cfg.Logger.Warn("event quarantined",
		"bank", d.Bank, "row", d.Row, "class", d.Class, "reason", d.Reason)
	e.writeDeadLetter(d)
}

// writeDeadLetter appends one entry to the rotating dead-letter log, if
// one is configured.
func (e *Engine) writeDeadLetter(d *DeadLetter) {
	if e.dead == nil {
		return
	}
	line, err := json.Marshal(d)
	if err != nil {
		return
	}
	e.dead.write(line)
}

// ---- journal event records -------------------------------------------------

// eventRecordSize is the fixed WAL payload for one event: int64 unix-nanos,
// uint64 packed address, uint8 ECC class — byte-identical to the wire
// codec's record (mcelog.WireRecordSize), so a binary frame's payload is
// exactly the concatenation of the journal payloads it produces.
const eventRecordSize = mcelog.WireRecordSize

// encodeEventRecord packs one event into a journal payload.
func encodeEventRecord(ev mcelog.Event) []byte {
	return mcelog.AppendWireRecord(nil, ev)
}

// decodeEventRecord unpacks a journal payload. A record whose packed
// address has bits outside the active layout is refused, as the wire
// decoder refuses it: the CRC only proves the bytes are the ones written.
func decodeEventRecord(p []byte) (mcelog.Event, error) {
	if len(p) != eventRecordSize {
		return mcelog.Event{}, fmt.Errorf("stream: event record of %d bytes, want %d", len(p), eventRecordSize)
	}
	if err := mcelog.CheckWireRecord(p); err != nil {
		return mcelog.Event{}, fmt.Errorf("stream: event record: %w", err)
	}
	return mcelog.DecodeWireRecord(p), nil
}

// ingestDurable journals the event, then enqueues it. The per-shard
// ingestMu holds both steps together so queue order equals LSN order
// within the shard — the invariant that lets replay reproduce exactly what
// the consumer saw. Under IngestDrop the capacity check happens BEFORE the
// append: an event shed at ingest must never be resurrected by replay.
func (e *Engine) ingestDurable(s *shard, ev mcelog.Event) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if e.cfg.Policy == IngestDrop && s.in.free() == 0 {
		s.dropped.Inc()
		return ErrDropped
	}
	lsn, err := e.wal.Append(encodeEventRecord(ev))
	if err != nil {
		// Not journaled: reject rather than accept an event that a crash
		// would silently forget. The caller decides whether to retry. The
		// failure also flips /readyz: a daemon that cannot persist intake
		// should be rotated out of traffic, not just return errors.
		e.walAppendErrs.Add(1)
		e.lastAppendErr.Store(err.Error())
		return fmt.Errorf("stream: journaling event: %w", err)
	}
	if last, _ := e.lastAppendErr.Load().(string); last != "" {
		e.lastAppendErr.Store("") // append works again: readiness restored
	}
	t0 := time.Now()
	s.in.push(queued{ev: ev, lsn: lsn})
	e.metrics.ingestWaitDur.ObserveSince(t0)
	e.metrics.ingested.Inc()
	return nil
}

// ingestBatchDurable is IngestBatch's journaled path. The invariant it
// must preserve is the same one ingestDurable's per-shard lock encodes:
// within a shard, queue order equals LSN order. Batches touch several
// shards, so the batch takes every touched shard's ingest lock in shard
// index order (all batch ingests lock ascending and singles lock one, so
// lock order is globally consistent — no deadlock) and holds them across
// journal-append + enqueue. Concurrent appends from other shards land in
// the same WAL group-commit window and share the fsync. Drop-policy
// admission runs BEFORE the append (shed events must never be journaled,
// or replay would resurrect them), truncating each shard group to its
// queue's free space — safe because the consumer only grows it and every
// producer for that shard is excluded by the ingest lock.
func (e *Engine) ingestBatchDurable(events []mcelog.Event, sc *batchScratch) (accepted, dropped int, err error) {
	for si := range sc.groups {
		if len(sc.groups[si]) == 0 {
			continue
		}
		e.shards[si].ingestMu.Lock()
		defer e.shards[si].ingestMu.Unlock()
	}
	if e.cfg.Policy == IngestDrop {
		for si, g := range sc.groups {
			if len(g) == 0 {
				continue
			}
			if free := e.shards[si].in.free(); len(g) > free {
				sc.drops[si] = len(g) - free
				dropped += sc.drops[si]
				sc.groups[si] = g[:free]
			}
		}
	}
	// Encode admitted events in arrival order, so a batch's LSN assignment
	// is exactly what the same events ingested one at a time would get.
	// Session snapshots embed LSN watermarks and the crash gate compares
	// them byte-for-byte across ingest shapes; arrival order also keeps
	// the assignment independent of the shard count, which recovery is
	// allowed to change. A shard's admitted events are the first
	// len(groups[si]) of its arrivals (admission trims the tail), tracked
	// by the pos cursor. Each queued entry temporarily holds its offset
	// within the batch; the WAL's first LSN is added after the append.
	total := 0
	for _, ev := range events {
		si := e.shardIndex(ev.Addr.BankKey())
		if sc.pos[si] >= len(sc.groups[si]) {
			continue // shed by admission
		}
		sc.groups[si][sc.pos[si]].lsn = uint64(total)
		sc.pos[si]++
		sc.enc = mcelog.AppendWireRecord(sc.enc, ev)
		total++
	}
	if total > 0 {
		first, aerr := e.wal.AppendBatch(sc.enc, eventRecordSize)
		if aerr != nil {
			// Nothing journaled, nothing queued: the caller must treat the
			// whole batch as rejected (shed events are not counted either —
			// their fate was never decided). Readiness flips as for singles.
			e.walAppendErrs.Add(1)
			e.lastAppendErr.Store(aerr.Error())
			return 0, 0, fmt.Errorf("stream: journaling batch: %w", aerr)
		}
		if last, _ := e.lastAppendErr.Load().(string); last != "" {
			e.lastAppendErr.Store("")
		}
		for si, g := range sc.groups {
			if len(g) == 0 {
				continue
			}
			for i := range g {
				g[i].lsn += first
			}
			t0 := time.Now()
			e.shards[si].in.pushBatch(g)
			e.metrics.ingestWaitDur.ObserveSince(t0)
			accepted += len(g)
		}
		e.metrics.ingested.Add(uint64(accepted))
	}
	for si, n := range sc.drops {
		if n > 0 {
			e.shards[si].dropped.Add(uint64(n))
		}
	}
	return accepted, dropped, nil
}

// ---- snapshot payload ------------------------------------------------------

// Engine snapshot payload layout (wrapped in wal's checksummed snapshot
// framing): magic, version, retention floor, the active model epoch
// (version + the journal position it took effect), session count, then
// per session the bank key, packed address, LSN watermark, pinned model
// version, engine bookkeeping (stats, distinct-UER and spared-row sets)
// and the strategy session's own state image.
//
// Version 2 added the model epoch header fields and the per-session
// pinned version; version-1 payloads still decode (sessions come back
// with version 0 = "whatever was active at boot").
const (
	engineSnapMagic   = "CENG"
	engineSnapVersion = 2
)

type snapEncoder struct{ b []byte }

func (e *snapEncoder) u8(v uint8) { e.b = append(e.b, v) }
func (e *snapEncoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *snapEncoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *snapEncoder) int(v int)    { e.u64(uint64(int64(v))) }
func (e *snapEncoder) time(t time.Time) {
	e.u64(uint64(t.Unix()))
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(t.Nanosecond()))
}
func (e *snapEncoder) ints(v []int) {
	e.int(len(v))
	for _, x := range v {
		e.int(x)
	}
}
func (e *snapEncoder) bytes(v []byte) {
	e.int(len(v))
	e.b = append(e.b, v...)
}

type snapDecoder struct {
	b   []byte
	off int
	err error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("stream: decoding snapshot: "+format, args...)
	}
}
func (d *snapDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}
func (d *snapDecoder) u8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}
func (d *snapDecoder) bool() bool { return d.u8() != 0 }
func (d *snapDecoder) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}
func (d *snapDecoder) int() int { return int(int64(d.u64())) }
func (d *snapDecoder) time() time.Time {
	sec := int64(d.u64())
	var nsec uint32
	if s := d.take(4); s != nil {
		nsec = binary.LittleEndian.Uint32(s)
	}
	if d.err != nil || (sec == zeroTimeSec && nsec == 0) {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count decodes a collection length and bounds it by the bytes left at
// minSize encoded bytes per element, so a corrupt count fails here rather
// than sizing an allocation: what a payload makes the decoder allocate
// stays proportional to the payload.
func (d *snapDecoder) count(minSize int) int {
	n := d.int()
	if d.err != nil {
		return 0
	}
	if left := len(d.b) - d.off; n < 0 || n > left/minSize {
		d.fail("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return n
}
func (d *snapDecoder) ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}
func (d *snapDecoder) bytes() []byte { return d.take(d.count(1)) }

// zeroTimeSec encodes time.Time{} (whose UnixNano is undefined) as a
// distinguishable (sec, nsec) sentinel.
var zeroTimeSec = time.Time{}.Unix()

// encodeSnapshot walks every shard (locking each in turn) and serialises
// the sessions selected by filter (nil = all) plus the retention floor:
// the minimum across shards of the highest LSN folded into sessions.
// Per-session watermarks make a non-instantaneous multi-shard snapshot
// safe — any record applied after its shard was encoded simply replays on
// recovery. A filtered payload is a handoff export, not a checkpoint: it
// uses the same framing, but its floor only describes the exporting
// engine and is informational to the importer.
func (e *Engine) encodeSnapshot(filter func(bankKey uint64) bool) (payload []byte, floor uint64, err error) {
	type sessImage struct {
		key  uint64
		blob []byte
	}
	var images []sessImage
	floor = ^uint64(0)
	for _, s := range e.shards {
		s.mu.Lock()
		if s.appliedLSN < floor {
			floor = s.appliedLSN
		}
		for key, bs := range s.sessions {
			if filter != nil && !filter(key) {
				continue
			}
			ds, ok := bs.sess.(core.DurableSession)
			if !ok {
				s.mu.Unlock()
				return nil, 0, fmt.Errorf("stream: session %T is not durable", bs.sess)
			}
			blob, serr := ds.EncodeState()
			if serr != nil {
				s.mu.Unlock()
				return nil, 0, serr
			}
			se := &snapEncoder{}
			se.u64(key)
			se.u64(uint64(bs.bank.Pack()))
			se.u64(bs.lastLSN)
			se.u64(bs.version)
			st := &bs.stats
			se.int(st.Events)
			se.int(st.UEREvents)
			se.int(st.DistinctUERRows)
			se.bool(st.Classified)
			se.u8(uint8(st.Class))
			se.bool(st.BankSpared)
			se.int(st.RowsIsolated)
			se.int(st.Actions)
			se.time(st.FirstEvent)
			se.time(st.LastEvent)
			se.bool(st.Degraded)
			se.ints(sortedKeys(bs.uerRows))
			se.ints(sortedKeys(bs.spared))
			se.bytes(blob)
			images = append(images, sessImage{key: key, blob: se.b})
		}
		s.mu.Unlock()
	}
	if floor == ^uint64(0) {
		floor = 0
	}
	sort.Slice(images, func(i, j int) bool { return images[i].key < images[j].key })
	// The active epoch rides in the header so recovery can rebind new
	// sessions correctly even after the swap record itself is truncated.
	// Snapshot takes snapMu and SwapModel excludes it, so the header can
	// never name an epoch the floor disagrees with.
	active := e.activeEpoch()
	out := &snapEncoder{b: make([]byte, 0, 1024)}
	out.b = append(out.b, engineSnapMagic...)
	out.u8(engineSnapVersion)
	out.u64(floor)
	out.u64(active.version)
	out.u64(active.sinceLSN)
	out.int(len(images))
	for _, im := range images {
		out.bytes(im.blob)
	}
	return out.b, floor, nil
}

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// sessionImage is one decoded per-session record of an engine snapshot
// payload: everything needed to rebuild the bankSession, plus the LSN
// watermark in the SOURCE engine's journal namespace.
type sessionImage struct {
	key     uint64
	bank    hbm.BankAddress
	lastLSN uint64
	version uint64
	stats   SessionStats
	uerRows []int
	spared  []int
	blob    []byte
}

// snapshotHeader is the decoded fixed prefix of an engine snapshot
// payload: the retention floor plus the model epoch that was active when
// it was taken (both zero for version-1 payloads' epoch fields).
type snapshotHeader struct {
	floor         uint64
	activeVersion uint64
	activeSince   uint64
}

// decodeSnapshotSessions validates an engine snapshot payload and decodes
// its session images. The header's floor is the source engine's retention
// floor — informational for a restore, and the WAL-suffix start for a
// handoff.
func decodeSnapshotSessions(payload []byte) (hdr snapshotHeader, images []sessionImage, err error) {
	if len(payload) < len(engineSnapMagic)+1 {
		return hdr, nil, fmt.Errorf("stream: snapshot payload too short")
	}
	if string(payload[:4]) != engineSnapMagic {
		return hdr, nil, fmt.Errorf("stream: bad snapshot payload magic")
	}
	ver := payload[4]
	if ver != 1 && ver != engineSnapVersion {
		return hdr, nil, fmt.Errorf("stream: unsupported snapshot payload version %d", ver)
	}
	d := &snapDecoder{b: payload, off: 5}
	hdr.floor = d.u64()
	if ver >= 2 {
		hdr.activeVersion = d.u64()
		hdr.activeSince = d.u64()
	}
	n := d.count(8) // each image carries at least its length prefix
	images = make([]sessionImage, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		body := d.bytes()
		if d.err != nil {
			break
		}
		sd := &snapDecoder{b: body}
		var im sessionImage
		im.key = sd.u64()
		im.bank = hbm.Unpack(sd.u64())
		im.lastLSN = sd.u64()
		if ver >= 2 {
			im.version = sd.u64()
		}
		st := &im.stats
		st.Events = sd.int()
		st.UEREvents = sd.int()
		st.DistinctUERRows = sd.int()
		st.Classified = sd.bool()
		st.Class = faultsim.Class(sd.u8())
		st.BankSpared = sd.bool()
		st.RowsIsolated = sd.int()
		st.Actions = sd.int()
		st.FirstEvent = sd.time()
		st.LastEvent = sd.time()
		st.Degraded = sd.bool()
		im.uerRows = sd.ints()
		im.spared = sd.ints()
		im.blob = sd.bytes()
		if sd.err != nil {
			return hdr, nil, sd.err
		}
		if sd.off != len(body) {
			return hdr, nil, fmt.Errorf("stream: %d trailing bytes in session image", len(body)-sd.off)
		}
		st.Bank = im.bank
		st.ModelVersion = im.version
		images = append(images, im)
	}
	return hdr, images, d.err
}

// buildSession reconstructs a live bankSession from a decoded image,
// including its strategy session and feature-state footprint.
func buildSession(ds core.DurableStrategy, im sessionImage) (*bankSession, error) {
	sess, err := ds.RestoreSession(im.bank, im.blob)
	if err != nil {
		return nil, fmt.Errorf("stream: restoring session for bank %s: %w", im.bank.String(), err)
	}
	bs := &bankSession{
		bank:    im.bank,
		sess:    sess,
		stats:   im.stats,
		uerRows: make(map[int]struct{}, len(im.uerRows)),
		spared:  make(map[int]struct{}, len(im.spared)),
		lastLSN: im.lastLSN,
		version: im.version,
	}
	for _, r := range im.uerRows {
		bs.uerRows[r] = struct{}{}
	}
	for _, r := range im.spared {
		bs.spared[r] = struct{}{}
	}
	if is, ok := sess.(core.InstrumentedSession); ok {
		fp, released := is.StateFootprint()
		bs.stats.StateBytes = fp.ApproxBytes
		bs.stats.StateRows = fp.TrackedRows
		bs.stats.StateReleased = released
	}
	return bs, nil
}

// installSession adds a rebuilt session to its shard's map and folds its
// footprint into the shard aggregates. Callers must hold s.mu (or be on
// the pre-consumer boot path, where no one else can touch the shard).
func (s *shard) installSession(key uint64, bs *bankSession) {
	s.sessions[key] = bs
	s.stateBytes += int64(bs.stats.StateBytes)
	s.stateRows += int64(bs.stats.StateRows)
	if bs.stats.StateReleased {
		s.released++
	}
	if bs.stats.Degraded {
		s.degraded++
	}
	if bs.lastLSN > s.appliedLSN {
		s.appliedLSN = bs.lastLSN
	}
}

// restoreSnapshot rebuilds every session from an engine snapshot payload,
// re-seeding the model epoch table from the header and rebinding each
// session to its pinned version. A version the model source cannot resolve
// is a hard error — serving a bank under the wrong model would silently
// diverge from the pre-crash verdict stream, which is worse than refusing
// to boot. Each shard's sessions are rebuilt on their own goroutine
// (restoring the strategy sessions' feature state is the bulk of the
// work); a failure on any of them fails the restore. Called during New,
// before the consumers start.
func (e *Engine) restoreSnapshot(payload []byte) error {
	hdr, images, err := decodeSnapshotSessions(payload)
	if err != nil {
		return err
	}
	if hdr.activeVersion != 0 {
		strat, serr := e.strategyFor(hdr.activeVersion)
		if serr != nil {
			return fmt.Errorf("stream: resolving snapshot's active model version %d: %w", hdr.activeVersion, serr)
		}
		e.seedEpochs(modelEpoch{version: hdr.activeVersion, sinceLSN: hdr.activeSince, strategy: strat})
	}
	// Each pinned version is resolved once, up front: a model source need
	// not be safe for concurrent lookups.
	strategies := make(map[uint64]core.DurableStrategy)
	lanes := make([][]int, len(e.shards)) // image indexes per shard
	for i := range images {
		v := images[i].version
		if _, ok := strategies[v]; !ok {
			ds, derr := e.resolveDurable(v)
			if derr != nil {
				return derr
			}
			strategies[v] = ds
		}
		si := e.shardIndex(images[i].key)
		lanes[si] = append(lanes[si], i)
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for si, lane := range lanes {
		wg.Add(1)
		go func(si int, lane []int) {
			defer wg.Done()
			s := e.shards[si]
			for _, i := range lane {
				im := &images[i]
				bs, berr := buildSession(strategies[im.version], *im)
				if berr != nil {
					errs[si] = berr
					return
				}
				s.installSession(im.key, bs)
			}
		}(si, lane)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	e.recoveredSessions += len(images)
	return nil
}

// ---- recovery and snapshotting --------------------------------------------

// recoverDurable restores the newest decodable snapshot (walking past
// corrupt ones — a bad snapshot costs replay time, never the recovery),
// opens the journal (repairing any torn tail), and replays the suffix
// through the normal apply path. Per-session watermarks skip records the
// snapshot already covers; actions re-derived by the replayed suffix are
// emitted again (at-least-once), deduplicated per bank by the restored
// spared-row state.
func (e *Engine) recoverDurable() error {
	dcfg := e.cfg.Durability
	fs := dcfg.FS
	if fs == nil {
		fs = wal.OSFS
	}
	// The boot epoch table, restored before each fallback attempt so a
	// half-restored snapshot cannot leave its header's epoch behind.
	bootEpochs := e.epochList()

	snaps, err := wal.ListSnapshots(fs, dcfg.Dir)
	if err != nil {
		return err
	}
	for _, si := range snaps {
		seq, payload, rerr := wal.ReadSnapshot(fs, si.Path)
		if rerr != nil {
			continue // corrupt file: fall back to the previous snapshot
		}
		if rerr = e.restoreSnapshot(payload); rerr != nil {
			// Undecodable payload (e.g. version skew): also fall back, but
			// drop any partially restored sessions first.
			e.resetSessions()
			e.epochs.Store(bootEpochs)
			continue
		}
		e.snapSeq = seq
		break
	}

	w, err := wal.Open(dcfg.Dir, wal.Options{
		FS:           fs,
		SegmentBytes: dcfg.SegmentBytes,
		Sync:         dcfg.Sync,
		SyncInterval: dcfg.SyncInterval,
		GroupCommit:  true,
		Metrics:      e.cfg.Metrics,
	})
	if err != nil {
		return err
	}
	e.wal = w

	replayed, err := e.replayJournal(w)
	if err != nil {
		w.Close()
		e.wal = nil
		return fmt.Errorf("stream: replaying journal: %w", err)
	}
	e.recoveredEvents = replayed
	e.metrics.recoveredSessions.Set(float64(e.recoveredSessions))
	e.metrics.recoveredEvents.Set(float64(replayed))
	return nil
}

// replayBatch is how many records the journal reader hands a shard's
// replay worker at once, and replayBatches how many such batches a shard
// has in flight: enough to amortise the hand-off and keep every worker
// busy, few enough that replay memory stays a few hundred KB per shard
// whatever the journal's length.
const (
	replayBatch   = 512
	replayBatches = 4
)

// replayLane is one shard's replay worker: batches of records in LSN
// order arrive on feed and go back on free once applied, and out collects
// the side effects of the records that had any.
type replayLane struct {
	feed chan []queued
	free chan []queued
	out  []replayOutput
}

// replayOutput is what replaying one record produced: the actions to emit
// or the dead letter to quarantine, tagged with the record's LSN so the
// shards' outputs can be merged back into journal order.
type replayOutput struct {
	lsn     uint64
	shard   *shard
	actions []Action
	dead    *DeadLetter
}

// replayJournal replays the whole journal through the apply path, one
// worker per shard. The calling goroutine reads and decodes the records
// in LSN order, installs model epochs as it meets their swap records
// (safe ahead of the workers, because a replayed record binds the epoch
// at its own LSN, never the latest one), and streams bounded per-shard
// batches to the workers. Each shard therefore applies its records in LSN
// order, which is all a session's state depends on. The actions and dead
// letters are collected per shard and, once every worker is done, emitted
// and quarantined in LSN order: the sequence on Actions(), including what
// its drop-oldest buffer keeps, is exactly the serial replay's. A bad
// record stops the reading, but the records before it still reach their
// shards and their output is still emitted before the error returns, as
// a serial replay would have left them. Replayed records go straight to
// apply, never through the live rings, so they do not count as processed.
func (e *Engine) replayJournal(w *walJournal) (replayed uint64, err error) {
	lanes := make([]*replayLane, len(e.shards))
	var wg sync.WaitGroup
	for i := range lanes {
		ln := &replayLane{
			feed: make(chan []queued, replayBatches),
			free: make(chan []queued, replayBatches),
		}
		for j := 0; j < replayBatches; j++ {
			ln.free <- make([]queued, 0, replayBatch)
		}
		lanes[i] = ln
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			for batch := range ln.feed {
				for _, q := range batch {
					out, dead := e.apply(s, q)
					if out != nil || dead != nil {
						ln.out = append(ln.out, replayOutput{lsn: q.lsn, shard: s, actions: out, dead: dead})
					}
				}
				ln.free <- batch[:0]
			}
		}(e.shards[i])
	}
	pending := make([][]queued, len(lanes))
	for i, ln := range lanes {
		pending[i] = <-ln.free
	}
	err = w.Replay(func(lsn uint64, payload []byte) error {
		if version, isSwap := decodeSwapRecord(payload); isSwap {
			// Re-install the epoch at its original position so sessions
			// created later in the replay bind the same version they bound
			// live. Idempotent against the snapshot header's seed. An
			// unresolvable version fails the boot loudly, same as restore.
			strat, serr := e.strategyFor(version)
			if serr != nil {
				return fmt.Errorf("stream: resolving replayed model swap to version %d: %w", version, serr)
			}
			e.installEpoch(modelEpoch{version: version, sinceLSN: lsn, strategy: strat})
			return nil
		}
		ev, derr := decodeEventRecord(payload)
		if derr != nil {
			return derr
		}
		replayed++
		si := e.shardIndex(ev.Addr.BankKey())
		pending[si] = append(pending[si], queued{ev: ev, lsn: lsn})
		if len(pending[si]) == replayBatch {
			lanes[si].feed <- pending[si]
			pending[si] = <-lanes[si].free
		}
		return nil
	})
	for i, ln := range lanes {
		if len(pending[i]) > 0 {
			ln.feed <- pending[i]
		}
		close(ln.feed)
	}
	wg.Wait()
	var outs []replayOutput
	for _, ln := range lanes {
		outs = append(outs, ln.out...)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].lsn < outs[j].lsn })
	for _, o := range outs {
		if o.dead != nil {
			e.quarantine(o.shard, o.dead)
		}
		for _, a := range o.actions {
			e.emit(a)
		}
	}
	return replayed, err
}

// resetSessions drops all restored sessions and shard bookkeeping (used
// when a snapshot payload fails mid-restore before falling back).
func (e *Engine) resetSessions() {
	for _, s := range e.shards {
		s.sessions = make(map[uint64]*bankSession)
		s.appliedLSN = 0
		s.stateBytes, s.stateRows = 0, 0
		s.released, s.degraded = 0, 0
	}
	e.recoveredSessions = 0
}

// ErrNotDurable is returned by Snapshot when no WAL directory was
// configured.
var ErrNotDurable = errors.New("stream: durability not configured")

// Snapshot writes a checkpoint of every session to the durability
// directory, then retires journal segments wholly covered by it and prunes
// old snapshot files. Concurrent ingest and processing continue throughout;
// Drain first for a checkpoint that covers everything accepted so far.
// Returns the snapshot's sequence number.
func (e *Engine) Snapshot() (uint64, error) {
	if e.wal == nil {
		return 0, ErrNotDurable
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	t0 := time.Now()
	payload, floor, err := e.encodeSnapshot(nil)
	if err != nil {
		e.metrics.snapshotErrors.Inc()
		return 0, err
	}
	seq := e.wal.NextLSN()
	if seq <= e.snapSeq {
		seq = e.snapSeq + 1
	}
	fs := e.cfg.Durability.FS
	if fs == nil {
		fs = wal.OSFS
	}
	if _, err := wal.WriteSnapshot(fs, e.cfg.Durability.Dir, seq, payload); err != nil {
		e.metrics.snapshotErrors.Inc()
		return 0, err
	}
	e.snapSeq = seq
	e.metrics.snapshots.Inc()
	e.metrics.snapshotBytes.Set(float64(len(payload)))
	// Retention is best-effort — a failure leaves extra files, not broken
	// recovery — but it must never be silent: a retention step that keeps
	// failing grows the directory until the disk fills, so each failure is
	// logged and counted (cordial_retention_errors_total, and
	// EngineStats.RetentionErrors on /statsz).
	if terr := e.wal.TruncateBefore(floor + 1); terr != nil {
		e.metrics.retentionErrors.Inc()
		e.cfg.Logger.Warn("snapshot retention failed",
			"stage", "truncate", "floor", floor, "err", terr)
	}
	if perr := wal.PruneSnapshots(fs, e.cfg.Durability.Dir, e.cfg.Durability.keep()); perr != nil {
		e.metrics.retentionErrors.Inc()
		e.cfg.Logger.Warn("snapshot retention failed",
			"stage", "prune", "keep", e.cfg.Durability.keep(), "err", perr)
	}
	e.metrics.snapshotDur.Observe(time.Since(t0).Seconds())
	return seq, nil
}
