package stream

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

// copyDir copies every file of a flat directory (a durability directory)
// into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestReplayIndependentOfShardCount: one journal, holding a snapshot
// midway, a model swap and poisoned events, reopened under 1 and under 4
// shards must produce the same Actions() sequence (order included, with a
// buffer small enough that drop-oldest decides what survives), the same
// dead-letter file, the same canonical session state and the same
// Sessions(). Replay runs one worker per shard, so this pins that its
// output is merged back into journal order.
func TestReplayIndependentOfShardCount(t *testing.T) {
	models := func() *fakeModels {
		return &fakeModels{active: 1, versions: map[uint64]core.Strategy{
			1: &fakeStrategy{budget: 3, poisonRow: 7},
			2: &fakeStrategy{budget: 3, poisonRow: 7},
		}}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	r := xrand.New(91)
	const banks, n, snapAt, swapAt = 40, 1200, 400, 700
	dir := t.TempDir()
	e, err := New(Config{Models: models(), Shards: 3, Logger: quiet,
		Durability: DurabilityConfig{Dir: dir, Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == snapAt {
			if err := e.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if i == swapAt {
			if _, err := e.SwapModel(2); err != nil {
				t.Fatal(err)
			}
		}
		ev := uerAt(testBank(r.Intn(banks)), 1+r.Intn(12), i)
		if r.Intn(3) == 0 {
			ev.Class = ecc.ClassCE
		}
		if err := e.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil { // no final snapshot: a crash
		t.Fatal(err)
	}
	drainActions(e)

	type reopened struct {
		actions  []Action
		stats    EngineStats
		body     []byte
		sessions []SessionStats
		dead     []byte
	}
	reopen := func(shards int) reopened {
		d := copyDir(t, dir)
		deadPath := filepath.Join(t.TempDir(), "dead.jsonl")
		e, err := New(Config{Models: models(), Shards: shards, ActionBuffer: 16, Logger: quiet,
			DeadLetterPath: deadPath, Durability: DurabilityConfig{Dir: d, Sync: wal.SyncNever}})
		if err != nil {
			t.Fatalf("reopen under %d shards: %v", shards, err)
		}
		var out reopened
		out.stats = e.Stats()
		payload, _, err := e.encodeSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		out.body = payload[snapBodyOffset:]
		out.sessions = e.Sessions()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		out.actions = drainActions(e)
		if out.dead, err = os.ReadFile(deadPath); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := reopen(1), reopen(4)
	if one.stats.RecoveredEvents != n || one.stats.RecoveredSessions == 0 || one.stats.ActiveModelVersion != 2 {
		t.Fatalf("recovery shape: %d events, %d sessions, active v%d; want %d events, a restored snapshot, v2",
			one.stats.RecoveredEvents, one.stats.RecoveredSessions, one.stats.ActiveModelVersion, n)
	}
	if one.stats.ActionsDropped == 0 || len(one.actions) != 16 {
		t.Fatalf("replay emitted %d actions, dropped %d; the test needs drop-oldest to act",
			len(one.actions), one.stats.ActionsDropped)
	}
	if len(one.dead) == 0 {
		t.Fatal("no dead letters: the poisoned row never replayed")
	}
	if !reflect.DeepEqual(one.actions, four.actions) {
		t.Errorf("Actions() sequence differs:\n 1 shard:  %v\n 4 shards: %v", one.actions, four.actions)
	}
	if one.stats.ActionsEmitted != four.stats.ActionsEmitted || one.stats.ActionsDropped != four.stats.ActionsDropped {
		t.Errorf("emitted/dropped %d/%d under 1 shard, %d/%d under 4", one.stats.ActionsEmitted,
			one.stats.ActionsDropped, four.stats.ActionsEmitted, four.stats.ActionsDropped)
	}
	if !bytes.Equal(one.dead, four.dead) {
		t.Errorf("dead-letter files differ:\n%s\nvs\n%s", one.dead, four.dead)
	}
	if !bytes.Equal(one.body, four.body) {
		t.Error("canonical snapshot payloads differ")
	}
	if !reflect.DeepEqual(one.sessions, four.sessions) {
		t.Error("Sessions() differ")
	}
}

// TestSnapshotDecodeAllocBoundedByInput: counts in a snapshot payload are
// bounded by the bytes left, so a short payload claiming a huge row list
// fails with allocation proportional to its size, not to its claim.
func TestSnapshotDecodeAllocBoundedByInput(t *testing.T) {
	body := &snapEncoder{}
	body.u64(1)                // key
	body.u64(0)                // packed address
	body.u64(5)                // lastLSN
	body.u64(1)                // pinned version
	body.int(3)                // Events
	body.int(3)                // UEREvents
	body.int(3)                // DistinctUERRows
	body.bool(true)            // Classified
	body.u8(1)                 // Class
	body.bool(false)           // BankSpared
	body.int(0)                // RowsIsolated
	body.int(0)                // Actions
	body.time(time.Unix(1, 0)) // FirstEvent
	body.time(time.Unix(2, 0)) // LastEvent
	body.bool(false)           // Degraded
	body.int(1<<24 - 1)        // uerRows claims 16M entries...
	payload := &snapEncoder{}
	payload.b = append(payload.b, engineSnapMagic...)
	payload.u8(engineSnapVersion)
	payload.u64(0) // floor
	payload.u64(1) // active version
	payload.u64(0) // active since
	payload.int(1) // one session
	payload.bytes(body.b)
	// ...and a second payload whose session count is the bomb.
	sessions := &snapEncoder{}
	sessions.b = append(sessions.b, payload.b[:snapBodyOffset+16]...)
	sessions.int(1<<24 - 1)

	for _, tc := range []struct {
		name string
		b    []byte
	}{{"row list", payload.b}, {"session count", sessions.b}} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 20
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				if _, _, err := decodeSnapshotSessions(tc.b); err == nil {
					t.Fatal("a payload claiming more entries than its bytes decoded")
				}
			}
			runtime.ReadMemStats(&after)
			perDecode := (after.TotalAlloc - before.TotalAlloc) / rounds
			if limit := uint64(64*len(tc.b) + 4096); perDecode > limit {
				t.Fatalf("a %d-byte payload allocated %d bytes per decode, want <= %d", len(tc.b), perDecode, limit)
			}
		})
	}
}

// BenchmarkRecovery reopens a durable engine over a journal of ~100k
// events (trained Cordial strategy) with a snapshot taken midway: restore
// the snapshot, replay the whole journal (the first half skipped by the
// sessions' watermarks), and report the cost per replayed record.
func BenchmarkRecovery(b *testing.B) {
	pipe, err := trainedPipeline()
	if err != nil {
		b.Fatal(err)
	}
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: hbm.DefaultGeometry}
	const n = 100_000
	r := xrand.New(17)
	banks := make([]hbm.BankAddress, 3000)
	for i := range banks {
		banks[i] = hbm.RandomBank(hbm.DefaultGeometry, r)
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := make([]mcelog.Event, n)
	for i := range evs {
		class := ecc.ClassCE
		switch x := r.Intn(100); {
		case x < 1:
			class = ecc.ClassUER
		case x < 3:
			class = ecc.ClassUEO
		}
		evs[i] = mcelog.Event{
			Time:  t0.Add(time.Duration(i) * time.Second),
			Addr:  hbm.CellInBank(banks[r.Intn(len(banks))], r.Intn(4096), r.Intn(128)),
			Class: class,
		}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := Config{Strategy: strategy, Logger: quiet, Durability: DurabilityConfig{Dir: b.TempDir(), Sync: wal.SyncNever}}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 1000 {
		if i == n/2 {
			if err := e.Drain(time.Minute); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := e.IngestBatch(evs[i : i+1000]); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	drainActions(e)

	b.ReportAllocs()
	b.ResetTimer()
	var replayed uint64
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		replayed += e.Stats().RecoveredEvents
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		drainActions(e)
	}
	b.StopTimer()
	if replayed != uint64(b.N)*n {
		b.Fatalf("replayed %d records over %d reopens, want %d each", replayed, b.N, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(replayed), "ns/event")
}
