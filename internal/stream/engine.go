// Package stream is Cordial's fleet-scale online prediction engine: the
// piece that turns the trained pipeline into a service. Events from the
// whole fleet are ingested concurrently, routed to one of N shards by
// packed bank address, and replayed through per-bank strategy sessions —
// the exact same sessions the offline evaluator drives — so the online
// feature vectors match offline training bit-for-bit. The moment a bank
// crosses the first-3-UER budget the pipeline fires and the engine emits
// typed mitigation Actions (row-spare / bank-spare) on a bounded output
// channel.
//
// Concurrency model: each shard owns its bank-session map and is mutated
// only by its single consumer goroutine; a per-shard mutex makes the map
// readable for inspection (GET /v1/banks/{addr}) without stopping the
// world. Ingest is wait-free apart from the queue send; per-bank event
// order is preserved because one bank always hashes to the same shard and
// shard queues are FIFO.
//
// Per-event inference cost: a UER on an aggregation bank triggers one
// window prediction, which the pipeline scores serially on the shard
// consumer — 16 block vectors built into pooled scratch, each row run
// through the block model's packed tree arena — allocating only the
// returned probabilities, so the critical path stays short under burst
// load.
package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/sparing"
)

// IngestPolicy selects what Ingest does when a shard queue is full.
type IngestPolicy int

const (
	// IngestBlock applies backpressure: Ingest waits for queue space.
	IngestBlock IngestPolicy = iota
	// IngestDrop sheds load: Ingest drops the event, counts it, and
	// returns ErrDropped.
	IngestDrop
)

// String names the policy.
func (p IngestPolicy) String() string {
	switch p {
	case IngestBlock:
		return "block"
	case IngestDrop:
		return "drop"
	default:
		return fmt.Sprintf("IngestPolicy(%d)", int(p))
	}
}

// Sentinel errors returned by Ingest.
var (
	// ErrClosed is returned by Ingest after Close.
	ErrClosed = errors.New("stream: engine closed")
	// ErrDropped is returned under IngestDrop when a full queue sheds the
	// event.
	ErrDropped = errors.New("stream: event dropped (shard queue full)")
)

// Config configures an Engine. Strategy is required; everything else has a
// serviceable default.
type Config struct {
	// Strategy supplies per-bank prediction sessions (normally
	// core.CordialStrategy over a fitted pipeline). Shorthand for a
	// single-model engine: when Models is nil, the engine wraps Strategy in
	// StaticModels. Ignored when Models is set.
	Strategy core.Strategy
	// Models resolves strategies by version — the swap point of the online
	// retraining loop. New sessions bind the source's active model at
	// creation; SwapModel changes what "active" means without touching
	// existing sessions. Normally a *registry.Registry.
	Models ModelSource
	// Geometry validates incoming addresses. Zero means the active
	// topology profile's geometry.
	Geometry hbm.Geometry
	// Shards is the number of session shards (and consumer goroutines, and
	// the workers recovery replays and restores on). Zero means GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard input queue capacity. Zero means 1024.
	QueueDepth int
	// ActionBuffer is the output channel capacity. Zero means 4096. When
	// the consumer falls behind, the oldest queued action is dropped to
	// admit the newest (counted in EngineStats.ActionsDropped) so a slow
	// reader can never wedge a shard.
	ActionBuffer int
	// Policy selects the full-queue behaviour of Ingest.
	Policy IngestPolicy
	// Durability configures the WAL + snapshot layer. The zero value (no
	// Dir) runs the engine purely in memory; with a Dir the Strategy must
	// implement core.DurableStrategy so sessions can be checkpointed.
	Durability DurabilityConfig
	// DeadLetterPath, when set, appends quarantined events (events whose
	// processing panicked) as JSON lines to this file. Quarantine happens
	// with or without the file; the file preserves the evidence.
	DeadLetterPath string
	// DeadLetterRotation caps the quarantine trail on disk (file-size
	// rotation plus count/age pruning of rotated files). The zero value
	// applies the package defaults; it only matters with DeadLetterPath.
	DeadLetterRotation DeadLetterRotation
	// Metrics is the registry the engine registers its instruments in.
	// Nil means a fresh private registry — instrumentation is always on
	// (the instruments ARE the engine's counters); passing a registry only
	// controls where they are visible. Exposed via Engine.Metrics for the
	// HTTP /metrics endpoint.
	Metrics *obs.Registry
	// Logger receives the engine's structured diagnostics (retention
	// failures, quarantines). Nil means slog.Default().
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Models == nil && c.Strategy != nil {
		c.Models = StaticModels(c.Strategy)
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.ActionBuffer == 0 {
		c.ActionBuffer = 4096
	}
	if c.Geometry == (hbm.Geometry{}) {
		c.Geometry = hbm.ActiveProfile().Geometry
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Models == nil {
		return fmt.Errorf("stream: no model source (set Strategy or Models)")
	}
	active, _ := c.Models.ActiveModel()
	if active == nil {
		return fmt.Errorf("stream: model source has no active model")
	}
	if c.Shards < 1 {
		return fmt.Errorf("stream: shard count %d < 1", c.Shards)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("stream: queue depth %d < 1", c.QueueDepth)
	}
	if c.ActionBuffer < 1 {
		return fmt.Errorf("stream: action buffer %d < 1", c.ActionBuffer)
	}
	if c.Policy != IngestBlock && c.Policy != IngestDrop {
		return fmt.Errorf("stream: invalid ingest policy %d", int(c.Policy))
	}
	if c.Durability.Dir != "" {
		if _, ok := active.(core.DurableStrategy); !ok {
			return fmt.Errorf("stream: durability configured but strategy %T cannot restore sessions", active)
		}
	}
	return c.Geometry.Validate()
}

// Action is one mitigation the engine recommends, emitted on the output
// channel the moment the pipeline decides it.
type Action struct {
	// Kind is the mitigation mechanism (row-spare or bank-spare).
	Kind sparing.ActionKind
	// Bank is the affected bank.
	Bank hbm.BankAddress
	// Rows lists newly isolated rows for row-granular actions; nil for
	// bank sparing. Rows already isolated by an earlier action on the same
	// bank are not re-emitted.
	Rows []int
	// Class is the failure class the pipeline assigned the bank.
	Class faultsim.Class
	// Time is the timestamp of the event that triggered the action.
	Time time.Time
}

// SessionStats is a point-in-time snapshot of one bank's session, for
// inspection endpoints and operator tooling.
type SessionStats struct {
	// Bank is the session's bank address.
	Bank hbm.BankAddress
	// Events counts all events routed to the bank.
	Events int
	// UEREvents counts UER-class events.
	UEREvents int
	// DistinctUERRows counts distinct rows with at least one UER.
	DistinctUERRows int
	// Classified reports whether the pattern stage has fired.
	Classified bool
	// Class is the assigned failure class (valid when Classified).
	Class faultsim.Class
	// BankSpared reports whether a bank-spare action was emitted.
	BankSpared bool
	// RowsIsolated counts distinct rows isolated by emitted actions.
	RowsIsolated int
	// Actions counts actions emitted for the bank.
	Actions int
	// FirstEvent and LastEvent bound the session's observed window.
	FirstEvent, LastEvent time.Time
	// StateBytes approximates the resident bytes of the session's
	// incremental feature state; zero once released. The state holds no
	// event buffer, so this is bounded by the bank's distinct error rows,
	// not by Events.
	StateBytes int
	// StateRows is the tracked-row entry count of the feature state (the
	// only part of it that grows at all).
	StateRows int
	// StateReleased reports that the session dropped its feature state
	// after a terminal decision (bank spared).
	StateReleased bool
	// ModelVersion is the model version this session is pinned to: the
	// active version when the session was created. A swap never rebinds a
	// live session, so during a mixed-version window this differs from the
	// engine's active version.
	ModelVersion uint64
	// Degraded reports that an event for this bank panicked during
	// processing: the event was quarantined and the session no longer
	// feeds events to its strategy session (its state may be inconsistent).
	Degraded bool
}

// EngineStats is a point-in-time snapshot of the whole engine.
type EngineStats struct {
	// Uptime is the time since New.
	Uptime time.Duration
	// Ingested counts events accepted by Ingest (enqueued to a shard).
	Ingested uint64
	// Dropped counts events shed at ingest under IngestDrop.
	Dropped uint64
	// Processed counts events fully run through a session.
	Processed uint64
	// ActionsEmitted counts actions delivered to the output channel.
	ActionsEmitted uint64
	// ActionsDropped counts actions evicted from a full output channel.
	ActionsDropped uint64
	// SessionsLive is the number of live per-bank sessions.
	SessionsLive int
	// Shards is the configured shard count.
	Shards int
	// IngestRate is accepted events per second since New.
	IngestRate float64
	// QueueDepths is the current per-shard input queue occupancy.
	QueueDepths []int
	// IngestWait summarises the time Ingest spent enqueueing (the
	// backpressure signal): the cordial_ingest_wait_seconds histogram.
	IngestWait LatencySnapshot
	// Process summarises per-event session time (feature extraction +
	// model inference): the cordial_process_seconds histogram.
	Process LatencySnapshot
	// FeatureStateBytes approximates the resident bytes of all live
	// sessions' incremental feature state. Each session's state is bounded
	// by its bank's distinct error rows (never by event count), so this is
	// the operator-facing proof of the bounded-memory claim.
	FeatureStateBytes int64
	// FeatureStateRows is the total tracked-row entries across live
	// sessions' feature states.
	FeatureStateRows int64
	// SessionsReleased counts sessions that dropped their feature state
	// after a terminal decision (bank spared).
	SessionsReleased int
	// ShardStateBytes is the per-shard breakdown of FeatureStateBytes.
	ShardStateBytes []int64
	// Quarantined counts events whose processing panicked; each was logged
	// to the dead-letter file (when configured) and its session degraded.
	Quarantined uint64
	// SessionsDegraded is the number of sessions in the degraded state.
	SessionsDegraded int
	// WALEnabled reports whether the durability layer is active.
	WALEnabled bool
	// WALAppended counts records journaled since this process opened the
	// WAL; WALSegments and WALNextLSN describe the journal itself.
	WALAppended uint64
	WALSegments int
	WALNextLSN  uint64
	// LastSnapshotSeq is the sequence of the most recent snapshot written
	// or recovered from (zero when none).
	LastSnapshotSeq uint64
	// RecoveredSessions and RecoveredEvents describe the boot-time
	// recovery: sessions restored from the snapshot and WAL records
	// replayed (including ones skipped as already applied).
	RecoveredSessions int
	RecoveredEvents   uint64
	// RetentionErrors counts failed post-snapshot retention steps (journal
	// truncation or snapshot pruning). Non-zero means disk usage is growing
	// past the configured retention until a later snapshot succeeds.
	RetentionErrors uint64
	// WALAppendErrors counts Ingest calls that failed to journal their
	// event; LastWALAppendError is the most recent failure's message
	// (empty once an append succeeds again).
	WALAppendErrors    uint64
	LastWALAppendError string
	// ActiveModelVersion is the model version new sessions currently bind;
	// ModelSwaps counts SwapModel calls that took effect since boot.
	ActiveModelVersion uint64
	ModelSwaps         uint64
	// Shadow describes the in-progress shadow evaluation (Active false
	// when none is running).
	Shadow ShadowStats
}

// Engine is the sharded online prediction engine. Construct with New; all
// exported methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	shards []*shard
	start  time.Time

	actions   chan Action
	metrics   engineMetrics
	batchPool sync.Pool // *batchScratch, sized to the shard count

	// walAppendErrs / lastAppendErr track journal-append failures for
	// readiness: a serving daemon that cannot persist intake is not ready.
	walAppendErrs atomic.Uint64
	lastAppendErr atomic.Value // string; "" once an append succeeds again

	// epochs is the copy-on-write model epoch table ([]modelEpoch, oldest
	// first); the tail is what new sessions bind. Written by SwapModel
	// (under snapMu) and boot-time recovery; read lock-free on the session
	// creation path.
	epochs atomic.Value

	// shadow holds the current *shadowEval (nil-typed when none) and
	// shadowGen numbers evaluations so stale per-session twins are inert.
	shadow    atomic.Value
	shadowGen atomic.Uint64

	// classifications counts pattern-stage classification flips (a session
	// deciding its bank's class for the first time); the lifecycle manager
	// uses it as an activity signal for drift-check scheduling.
	classifications atomic.Uint64

	// Durability state; all nil/zero when no WAL directory is configured.
	wal               *walJournal
	snapMu            sync.Mutex // serialises Snapshot
	snapSeq           uint64     // under snapMu
	recoveredSessions int        // set before consumers start
	recoveredEvents   uint64

	dead *deadLetterLog

	mu     sync.RWMutex // guards closed against in-flight Ingest sends
	closed bool
	wg     sync.WaitGroup
}

// queued is one event in a shard queue, tagged with its WAL position (0
// when the journal is disabled).
type queued struct {
	ev  mcelog.Event
	lsn uint64
}

// shard is one session partition, consumed by a single goroutine. The
// counters are per-shard obs instruments (labelled shard="i") registered
// by registerMetrics; they are the only copy of these counts.
type shard struct {
	in          *eventRing
	processed   *obs.Counter
	dropped     *obs.Counter
	quarantined *obs.Counter

	// ingestMu serialises journal-append + enqueue so queue order equals
	// LSN order within the shard (the invariant replay depends on). Only
	// taken on the durable ingest path.
	ingestMu sync.Mutex

	mu       sync.Mutex // guards sessions for cross-goroutine inspection
	sessions map[uint64]*bankSession
	// appliedLSN is the highest journal position folded into this shard's
	// sessions; the minimum across shards bounds WAL retention.
	appliedLSN uint64
	// Running feature-state totals over this shard's sessions, maintained
	// by O(1) per-event deltas in process (also under mu).
	stateBytes int64
	stateRows  int64
	released   int
	degraded   int
}

// bankSession couples a strategy session with the bookkeeping the engine
// layers on top. Mutated only under the owning shard's mutex.
type bankSession struct {
	bank    hbm.BankAddress
	sess    core.Session
	stats   SessionStats
	uerRows map[int]struct{}
	spared  map[int]struct{}
	// lastLSN is the newest journal record applied to this session; replay
	// skips records at or below it. Tracked per session (not per shard) so
	// recovery stays correct even if the shard count changes across
	// restarts.
	lastLSN uint64
	// version is the model version the session is pinned to (mirrored in
	// stats.ModelVersion; kept as its own field because it also rides in
	// snapshots and must survive stats rewrites).
	version uint64
	// shadow is the candidate-model twin while a shadow evaluation that
	// saw this session's birth is running; nil otherwise.
	shadow *shadowSession
}

// New validates cfg (after defaulting) and starts the shard consumers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		start:   time.Now(),
		actions: make(chan Action, cfg.ActionBuffer),
	}
	for i := range e.shards {
		e.shards[i] = &shard{
			in:       newEventRing(cfg.QueueDepth),
			sessions: make(map[uint64]*bankSession),
		}
	}
	e.batchPool.New = func() any {
		return &batchScratch{
			groups: make([][]queued, len(e.shards)),
			drops:  make([]int, len(e.shards)),
			pos:    make([]int, len(e.shards)),
		}
	}
	e.lastAppendErr.Store("")
	e.shadow.Store((*shadowEval)(nil))
	// The boot epoch is whatever the model source calls active right now.
	// Recovery may replace it (snapshot header + replayed swap records)
	// with the epochs that were actually in force before the crash.
	bootStrat, bootVer := cfg.Models.ActiveModel()
	e.epochs.Store([]modelEpoch{{version: bootVer, strategy: bootStrat}})
	// Instruments must exist before recovery (the WAL registers its own on
	// Open) and before the first Ingest.
	e.registerMetrics()
	if cfg.DeadLetterPath != "" {
		dl, err := openDeadLetterLog(cfg.DeadLetterPath, cfg.DeadLetterRotation)
		if err != nil {
			return nil, err
		}
		e.dead = dl
	}
	// Recovery (snapshot restore + WAL replay) runs before the consumers
	// start, so replayed and live events can never interleave on a shard.
	if cfg.Durability.Dir != "" {
		if err := e.recoverDurable(); err != nil {
			if e.dead != nil {
				e.dead.close()
			}
			return nil, err
		}
	}
	for _, s := range e.shards {
		s := s
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			buf := make([]queued, consumerBatch)
			for {
				n, ok := s.in.popBatch(buf)
				if !ok {
					return
				}
				for i := 0; i < n; i++ {
					e.process(s, buf[i])
				}
			}
		}()
	}
	return e, nil
}

// consumerBatch is how many queued events a shard consumer drains per
// ring round: large enough to amortise the lock, small enough that the
// queue-depth gauge stays honest under load.
const consumerBatch = 256

// Config returns the effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// shardFor routes a bank key to its shard. Bank keys are packed addresses
// with the row/column bits zeroed, so the low bits carry no entropy; a
// splitmix64 finaliser spreads them before the modulo.
func (e *Engine) shardFor(bankKey uint64) *shard {
	return e.shards[e.shardIndex(bankKey)]
}

// shardIndex is shardFor's index form (batch ingest groups by index).
func (e *Engine) shardIndex(bankKey uint64) int {
	return int(mix64(bankKey) % uint64(len(e.shards)))
}

// mix64 is the splitmix64 finaliser, a fast full-avalanche bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ingest routes one event to its bank's shard. Under IngestBlock a full
// queue applies backpressure; under IngestDrop the event is shed and
// ErrDropped returned. Ingest returns ErrClosed after Close. Events for
// the same bank ingested from the same goroutine are processed in order.
// With durability configured the event is journaled before it is queued:
// a nil return means the event is on stable storage (subject to the fsync
// policy) and will survive a crash.
func (e *Engine) Ingest(ev mcelog.Event) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	s := e.shardFor(ev.Addr.BankKey())
	if e.wal != nil {
		return e.ingestDurable(s, ev)
	}
	switch e.cfg.Policy {
	case IngestDrop:
		if !s.in.tryPush(queued{ev: ev}) {
			s.dropped.Inc()
			return ErrDropped
		}
	default:
		t0 := time.Now()
		if !s.in.push(queued{ev: ev}) {
			return ErrClosed
		}
		e.metrics.ingestWaitDur.ObserveSince(t0)
	}
	e.metrics.ingested.Inc()
	return nil
}

// batchScratch is the reusable working set of one IngestBatch call:
// per-shard event groups, per-shard drop counts, and the journal payload
// buffer. Pooled so the steady-state batch ingest path allocates nothing.
type batchScratch struct {
	groups [][]queued
	drops  []int
	pos    []int // per-shard cursor for arrival-order LSN assignment
	enc    []byte
}

// IngestBatch routes a batch of already-validated events, the bulk
// counterpart of Ingest for the binary wire path. Events are grouped by
// shard (preserving input order, so per-bank order is preserved), and
// with durability configured the whole admitted batch is journaled with
// one WAL append — one buffered write, at most one fsync — before any
// event is queued: a nil error means every accepted event is on stable
// storage, exactly Ingest's contract amortised. Under IngestDrop the
// portion of a shard's group that does not fit its queue is shed (and
// counted in dropped) before journaling, so shed events are never
// resurrected by replay. A non-nil error means no event of the batch was
// accepted.
func (e *Engine) IngestBatch(events []mcelog.Event) (accepted, dropped int, err error) {
	if len(events) == 0 {
		return 0, 0, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, 0, ErrClosed
	}
	sc := e.batchPool.Get().(*batchScratch)
	defer e.releaseScratch(sc)
	for _, ev := range events {
		si := e.shardIndex(ev.Addr.BankKey())
		sc.groups[si] = append(sc.groups[si], queued{ev: ev})
	}
	if e.wal != nil {
		return e.ingestBatchDurable(events, sc)
	}
	for si, g := range sc.groups {
		if len(g) == 0 {
			continue
		}
		s := e.shards[si]
		switch e.cfg.Policy {
		case IngestDrop:
			pushed := s.in.tryPushBatch(g)
			if shed := len(g) - pushed; shed > 0 {
				s.dropped.Add(uint64(shed))
				dropped += shed
			}
			accepted += pushed
		default:
			t0 := time.Now()
			if !s.in.pushBatch(g) {
				break // closing: events already queued still process
			}
			e.metrics.ingestWaitDur.ObserveSince(t0)
			accepted += len(g)
		}
	}
	e.metrics.ingested.Add(uint64(accepted))
	return accepted, dropped, nil
}

// releaseScratch resets and pools a batch working set.
func (e *Engine) releaseScratch(sc *batchScratch) {
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
		sc.drops[i] = 0
		sc.pos[i] = 0
	}
	sc.enc = sc.enc[:0]
	e.batchPool.Put(sc)
}

// IngestLog feeds every event of a log through Ingest, returning the
// number accepted and the first non-drop error.
func (e *Engine) IngestLog(l *mcelog.Log) (accepted int, err error) {
	for i := 0; i < l.Len(); i++ {
		switch ierr := e.Ingest(l.At(i)); {
		case ierr == nil:
			accepted++
		case errors.Is(ierr, ErrDropped):
			// Counted by the engine; load shedding is not a caller error.
		default:
			return accepted, ierr
		}
	}
	return accepted, nil
}

// process runs one event through its bank session and emits any resulting
// actions. Runs on the shard's consumer goroutine only.
func (e *Engine) process(s *shard, q queued) {
	out, dead := e.apply(s, q)
	s.processed.Inc()
	if dead != nil {
		e.quarantine(s, dead)
	}
	for _, a := range out {
		e.emit(a)
	}
}

// apply folds one event into its bank session under the shard lock and
// returns the actions to emit. A panic anywhere in the strategy session is
// caught: the event is returned as a dead-letter entry, the session is
// marked degraded (it stops feeding its strategy session, whose state may
// be mid-mutation), and the shard keeps consuming — one poisoned event
// must never take the daemon down.
func (e *Engine) apply(s *shard, q queued) (out []Action, dead *DeadLetter) {
	ev := q.ev
	key := ev.Addr.BankKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.sessions[key]
	if !ok {
		bank := hbm.BankOf(ev.Addr)
		// The swap point: a session binds the model epoch in force when it
		// is born and stays pinned to it for life. Live events (and the
		// non-durable path, lsn 0) bind the current active epoch; replayed
		// events bind the epoch at their journal position, so recovery
		// recreates each session under the same version it was born under.
		ep := e.activeEpoch()
		if q.lsn != 0 {
			ep = e.epochFor(q.lsn)
		}
		bs = &bankSession{
			bank:    bank,
			sess:    ep.strategy.NewSession(bank),
			version: ep.version,
			uerRows: make(map[int]struct{}),
			spared:  make(map[int]struct{}),
		}
		bs.stats.Bank = bank
		bs.stats.FirstEvent = ev.Time
		bs.stats.ModelVersion = ep.version
		// A bank whose history starts while a shadow evaluation is running
		// gets a candidate twin that will see the same full history.
		if se := e.loadShadow(); se != nil {
			bs.shadow = se.newShadowSession(bank)
		}
		s.sessions[key] = bs
	}
	if q.lsn != 0 {
		if q.lsn <= bs.lastLSN {
			return nil, nil // replay of a record already in the snapshot
		}
		// Recorded before OnEvent so a poisoned event is never replayed
		// into its session again after a restart.
		bs.lastLSN = q.lsn
		if q.lsn > s.appliedLSN {
			s.appliedLSN = q.lsn
		}
	}
	if bs.stats.Degraded {
		// The strategy session is quarantined; keep the observational
		// bookkeeping so /statsz still reflects the bank's traffic.
		bs.stats.Events++
		bs.stats.LastEvent = ev.Time
		return nil, nil
	}
	// The deferred recover runs before the deferred unlock (LIFO), so the
	// shard lock is always released exactly once, panic or not.
	defer func() {
		if r := recover(); r != nil {
			bs.stats.Degraded = true
			s.degraded++
			out = nil
			dead = &DeadLetter{
				Time:   ev.Time,
				Bank:   bs.bank.String(),
				Addr:   ev.Addr.Pack(),
				Row:    ev.Addr.Row,
				Class:  ev.Class.String(),
				LSN:    q.lsn,
				Reason: fmt.Sprint(r),
			}
		}
	}()
	prevBytes, prevRows, prevReleased := bs.stats.StateBytes, bs.stats.StateRows, bs.stats.StateReleased
	prevClassified := bs.stats.Classified
	// Shadow scoring needs the primary's pre-fold coverage: was this UER's
	// row (or the whole bank) already isolated when the event arrived?
	var primCoveredUER bool
	if bs.shadow != nil && ev.Class == ecc.ClassUER {
		if bs.stats.BankSpared {
			primCoveredUER = true
		} else if _, done := bs.spared[ev.Addr.Row]; done {
			primCoveredUER = true
		}
	}
	out = foldEvent(bs, ev, e.metrics.processDur)
	s.stateBytes += int64(bs.stats.StateBytes - prevBytes)
	s.stateRows += int64(bs.stats.StateRows - prevRows)
	if bs.stats.StateReleased && !prevReleased {
		s.released++
	}
	if !prevClassified && bs.stats.Classified {
		e.classifications.Add(1)
	}
	if bs.shadow != nil {
		if se := e.loadShadow(); se != nil && bs.shadow.gen == se.gen {
			primSpareBank := false
			primFresh := 0
			for _, a := range out {
				switch a.Kind {
				case sparing.ActionBankSpare:
					primSpareBank = true
				case sparing.ActionRowSpare:
					primFresh += len(a.Rows)
				}
			}
			se.foldShadow(bs.shadow, ev, primCoveredUER, primSpareBank, primFresh)
		} else {
			bs.shadow = nil // evaluation over or superseded; release the twin
		}
	}
	return out, nil
}

// foldEvent runs one event through a bank session: strategy OnEvent, the
// engine's session bookkeeping (counts, class, feature-state footprint)
// and action derivation with per-bank row dedupe. It mutates only the
// session, never shard-level state, so it serves both the shard consumer
// path (apply, holding the shard lock) and cluster handoff's suffix
// replay over sessions that are not installed in any shard yet. The
// caller owns panic handling: a panic from the strategy session unwinds
// through here with bs.stats partially updated, and the caller must mark
// the session degraded.
func foldEvent(bs *bankSession, ev mcelog.Event, proc *obs.Histogram) (out []Action) {
	t0 := time.Now()
	d := bs.sess.OnEvent(ev)
	proc.ObserveSince(t0)

	bs.stats.Events++
	bs.stats.LastEvent = ev.Time
	if ev.Class == ecc.ClassUER {
		bs.stats.UEREvents++
		if _, seen := bs.uerRows[ev.Addr.Row]; !seen {
			bs.uerRows[ev.Addr.Row] = struct{}{}
			bs.stats.DistinctUERRows++
		}
	}
	if cs, ok := bs.sess.(core.ClassifiedSession); ok && !bs.stats.Classified {
		if class, fired := cs.Class(); fired {
			bs.stats.Classified = true
			bs.stats.Class = class
		}
	}
	if is, ok := bs.sess.(core.InstrumentedSession); ok {
		fp, released := is.StateFootprint()
		bs.stats.StateBytes = fp.ApproxBytes
		bs.stats.StateRows = fp.TrackedRows
		bs.stats.StateReleased = released
	}

	if d.SpareBank && !bs.stats.BankSpared {
		bs.stats.BankSpared = true
		bs.stats.Actions++
		out = append(out, Action{
			Kind:  sparing.ActionBankSpare,
			Bank:  bs.bank,
			Class: bs.stats.Class,
			Time:  ev.Time,
		})
	}
	if len(d.IsolateRows) > 0 {
		// Emit each row at most once per bank: repeat predictions of an
		// already-isolated row are no-ops, exactly as the offline sparing
		// engine treats them. The same dedupe makes recovery's at-least-once
		// replay convergent: re-derived actions for already-spared rows are
		// suppressed here.
		var fresh []int
		for _, r := range d.IsolateRows {
			if _, done := bs.spared[r]; !done {
				bs.spared[r] = struct{}{}
				fresh = append(fresh, r)
			}
		}
		if len(fresh) > 0 {
			bs.stats.RowsIsolated += len(fresh)
			bs.stats.Actions++
			out = append(out, Action{
				Kind:  sparing.ActionRowSpare,
				Bank:  bs.bank,
				Rows:  fresh,
				Class: bs.stats.Class,
				Time:  ev.Time,
			})
		}
	}
	return out
}

// emit delivers an action, evicting the oldest queued action when the
// buffer is full so a slow consumer can never block a shard.
func (e *Engine) emit(a Action) {
	for {
		select {
		case e.actions <- a:
			e.metrics.actionsEmitted.Inc()
			return
		default:
		}
		select {
		case <-e.actions:
			e.metrics.actionsDropped.Inc()
		default:
		}
	}
}

// Actions returns the engine's output channel. It is closed by Close after
// all in-flight events have drained.
func (e *Engine) Actions() <-chan Action { return e.actions }

// Session returns a snapshot of one bank's session state.
func (e *Engine) Session(bank hbm.BankAddress) (SessionStats, bool) {
	key := bank.BankKey()
	s := e.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.sessions[key]
	if !ok {
		return SessionStats{}, false
	}
	return bs.stats, true
}

// Sessions snapshots every live session's stats, sorted by bank key. The
// admin surface uses it to report per-session pinned model versions.
func (e *Engine) Sessions() []SessionStats {
	var out []SessionStats
	for _, s := range e.shards {
		s.mu.Lock()
		for _, bs := range s.sessions {
			out = append(out, bs.stats)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Bank.BankKey() < out[j].Bank.BankKey()
	})
	return out
}

// SessionCount returns the number of live sessions.
func (e *Engine) SessionCount() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += len(s.sessions)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a point-in-time snapshot of the engine's counters, queue
// depths and latency distributions. The counters are read back from the
// obs instruments, so this is the same data GET /metrics renders.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Uptime:         time.Since(e.start),
		Ingested:       e.metrics.ingested.Value(),
		ActionsEmitted: e.metrics.actionsEmitted.Value(),
		ActionsDropped: e.metrics.actionsDropped.Value(),
		Shards:         len(e.shards),
		QueueDepths:    make([]int, len(e.shards)),
		IngestWait:     latencyOf(e.metrics.ingestWaitDur),
		Process:        latencyOf(e.metrics.processDur),
	}
	st.ShardStateBytes = make([]int64, len(e.shards))
	for i, s := range e.shards {
		st.Processed += s.processed.Value()
		st.Dropped += s.dropped.Value()
		st.Quarantined += s.quarantined.Value()
		st.QueueDepths[i] = s.in.length()
		s.mu.Lock()
		st.SessionsLive += len(s.sessions)
		st.ShardStateBytes[i] = s.stateBytes
		st.FeatureStateBytes += s.stateBytes
		st.FeatureStateRows += s.stateRows
		st.SessionsReleased += s.released
		st.SessionsDegraded += s.degraded
		s.mu.Unlock()
	}
	st.ActiveModelVersion = e.ActiveModelVersion()
	st.ModelSwaps = e.metrics.modelSwaps.Value()
	st.Shadow = e.ShadowStats()
	st.RecoveredSessions = e.recoveredSessions
	st.RecoveredEvents = e.recoveredEvents
	st.RetentionErrors = e.metrics.retentionErrors.Value()
	st.WALAppendErrors = e.walAppendErrs.Load()
	if s, ok := e.lastAppendErr.Load().(string); ok {
		st.LastWALAppendError = s
	}
	if e.wal != nil {
		st.WALEnabled = true
		st.WALAppended = e.wal.Appended()
		st.WALSegments = e.wal.Segments()
		st.WALNextLSN = e.wal.NextLSN()
		e.snapMu.Lock()
		st.LastSnapshotSeq = e.snapSeq
		e.snapMu.Unlock()
	}
	if secs := st.Uptime.Seconds(); secs > 0 {
		st.IngestRate = float64(st.Ingested) / secs
	}
	return st
}

// ReadyReasons reports why the engine is not ready to serve, one reason
// per condition; an empty slice means ready. Liveness (/healthz) is a
// different question — a degraded engine is alive but should be rotated
// out of intake, which is exactly what a 503 from /readyz tells the load
// balancer.
func (e *Engine) ReadyReasons() []string {
	var reasons []string
	degraded := 0
	for _, s := range e.shards {
		s.mu.Lock()
		degraded += s.degraded
		s.mu.Unlock()
	}
	if degraded > 0 {
		reasons = append(reasons, fmt.Sprintf("%d session(s) degraded after processing panics", degraded))
	}
	if msg, ok := e.lastAppendErr.Load().(string); ok && msg != "" {
		reasons = append(reasons, "last WAL append failed: "+msg)
	}
	return reasons
}

// Drain blocks until every accepted event has been processed (or the
// context budget d elapses; d <= 0 means wait forever). It does not stop
// the engine — use it to checkpoint a replay before reading stats.
func (e *Engine) Drain(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		var processed uint64
		for _, s := range e.shards {
			processed += s.processed.Value()
		}
		if processed >= e.metrics.ingested.Value() {
			return nil
		}
		if d > 0 && time.Now().After(deadline) {
			return fmt.Errorf("stream: drain timed out after %v (%d of %d processed)",
				d, processed, e.metrics.ingested.Value())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops intake, drains every shard queue through the sessions, then
// closes the Actions channel. Safe to call more than once. Close does NOT
// snapshot: a plain Close is deliberately equivalent to a crash (the WAL
// carries everything), so tests and operators exercise the same recovery
// path either way. Call Snapshot first for a fast subsequent boot.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		s.in.close()
	}
	e.wg.Wait()
	close(e.actions)
	var err error
	if e.wal != nil {
		err = e.wal.Close()
	}
	if e.dead != nil {
		if cerr := e.dead.close(); err == nil {
			err = cerr
		}
	}
	return err
}
