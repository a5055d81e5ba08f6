package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
	"cordial/internal/wal"
)

// engineConfig is cordial-serve's default engine configuration over one
// loaded pipeline; walDir enables durability with the daemon's defaults
// (fsync always, group commit).
func engineConfig(pipe *core.Pipeline, walDir string) stream.Config {
	geo := geometry()
	cfg := stream.Config{
		Strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: geo},
		Geometry: geo,
		Policy:   stream.IngestBlock,
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if walDir != "" {
		cfg.Durability = stream.DurabilityConfig{Dir: walDir, Sync: wal.SyncAlways}
	}
	return cfg
}

// booted is one engine boot: LoadModels on the model bytes, then
// stream.New, timed together as setup and LoadModels alone.
type booted struct {
	engine *stream.Engine
	cfg    stream.Config
	load   time.Duration
	setup  time.Duration
}

func boot(sc scale, model []byte, walDir string) (booted, error) {
	t0 := time.Now()
	pipe, err := loadPipeline(sc, model)
	if err != nil {
		return booted{}, err
	}
	load := time.Since(t0)
	cfg := engineConfig(pipe, walDir)
	e, err := stream.New(cfg)
	if err != nil {
		return booted{}, err
	}
	return booted{engine: e, cfg: cfg, load: load, setup: time.Since(t0)}, nil
}

// collector owns Engine.Actions: it stamps each action's arrival time.
// got and at are read only after done is closed.
type collector struct {
	done chan struct{}
	got  []stream.Action
	at   []time.Time
}

func collect(e *stream.Engine) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for a := range e.Actions() {
			c.at = append(c.at, time.Now())
			c.got = append(c.got, a)
		}
	}()
	return c
}

// sendStats counts what the ingest loop sent and what the engine took.
type sendStats struct {
	frames, sent, accepted, rejected, dropped, errored int
}

// sender is the ingest loop of POST /v1/events.bin over one engine:
// decode a frame, validate each record, IngestBatch the valid ones. With
// a tracer it splits decode and validate into separate passes so each
// gets its own span; without one it interleaves them exactly as the
// handler does.
type sender struct {
	e     *stream.Engine
	geo   hbm.Geometry
	dec   *mcelog.FrameDecoder
	raw   []mcelog.Event
	batch []mcelog.Event
	tr    *tracer
	sendStats
}

func newSender(e *stream.Engine, tr *tracer) *sender {
	return &sender{e: e, geo: geometry(), dec: mcelog.NewFrameDecoder(nil), tr: tr}
}

// next sends the next frame of the current stream; false at its end.
func (s *sender) next() (bool, error) {
	var fr mcelog.WireFrame
	var err error
	if s.tr == nil {
		fr, err = s.dec.Next()
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		s.batch = s.batch[:0]
		for i, n := 0, fr.Len(); i < n; i++ {
			ev := fr.Event(i)
			if err := ev.Validate(s.geo); err != nil {
				s.rejected++
				continue
			}
			s.batch = append(s.batch, ev)
		}
		s.sent += fr.Len()
	} else {
		id := s.tr.begin(spDecode, 0)
		fr, err = s.dec.Next()
		if errors.Is(err, io.EOF) {
			s.tr.end(id)
			return false, nil
		}
		if err != nil {
			return false, err
		}
		s.raw = s.raw[:0]
		for i, n := 0, fr.Len(); i < n; i++ {
			s.raw = append(s.raw, fr.Event(i))
		}
		s.tr.end(id)
		id = s.tr.begin(spValidate, 0)
		s.batch = s.batch[:0]
		for _, ev := range s.raw {
			if err := ev.Validate(s.geo); err != nil {
				s.rejected++
				continue
			}
			s.batch = append(s.batch, ev)
		}
		s.tr.end(id)
		s.sent += len(s.raw)
	}
	s.frames++
	id := s.tr.begin(spIngestBatch, 0)
	acc, drop, err := s.e.IngestBatch(s.batch)
	s.tr.end(id)
	s.accepted += acc
	s.dropped += drop
	if err != nil {
		s.errored += len(s.batch)
	}
	return true, nil
}

// drainTimeout bounds awaitProcessed: an engine that stops processing
// fails the run instead of hanging it.
const drainTimeout = time.Minute

// awaitProcessed waits until the engine has processed every accepted
// event.
func awaitProcessed(e *stream.Engine, accepted int) error {
	deadline := time.Now().Add(drainTimeout)
	for e.Stats().Processed < uint64(accepted) {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine processed %d of %d accepted events in %v", e.Stats().Processed, accepted, drainTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// satOut is one saturation pass.
type satOut struct {
	sendStats
	wall, cpu time.Duration
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
	snapshot  time.Duration
	stats     stream.EngineStats
}

// saturate pushes a whole stream through the engine as fast as it takes
// it, timing from the first decode to Processed == accepted. snapshotAt > 0
// takes one Engine.Snapshot after that many frames. The snapshot call's
// own wall time, CPU time and allocations are left out of the pass's
// totals and reported as snapshot: it writes and fsyncs the whole session
// state (~50 MB on ce-noise-durable, ~30% of the pass), so on a shared
// disk it would set the spread of every ingest figure.
func saturate(e *stream.Engine, in []byte, snapshotAt int, tr *tracer) (satOut, error) {
	var out satOut
	s := newSender(e, tr)
	s.dec.Reset(bytes.NewReader(in))
	runtime.GC()
	ms0 := memStats()
	cpu0 := cpuTime()
	t0 := time.Now()
	var snapCPU time.Duration
	var snapMallocs uint64
	for {
		more, err := s.next()
		if err != nil {
			return out, err
		}
		if !more {
			break
		}
		if s.frames == snapshotAt {
			mallocs, cpu, ts := memStats().Mallocs, cpuTime(), time.Now()
			id := tr.begin(spSnapshot, 0)
			if _, err := e.Snapshot(); err != nil {
				return out, fmt.Errorf("snapshot: %w", err)
			}
			tr.end(id)
			out.snapshot = time.Since(ts)
			snapCPU = cpuTime() - cpu
			snapMallocs = memStats().Mallocs - mallocs
		}
	}
	if err := awaitProcessed(e, s.accepted); err != nil {
		return out, err
	}
	out.wall = time.Since(t0) - out.snapshot
	out.cpu = cpuTime() - cpu0 - snapCPU
	ms1 := memStats()
	out.sendStats = s.sendStats
	out.mallocs = ms1.Mallocs - ms0.Mallocs - snapMallocs
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	out.stats = e.Stats()
	return out, nil
}

// pacedOut is one open-loop pass.
type pacedOut struct {
	sendStats
	start    time.Time
	lags     []time.Duration
	depthMax int
}

// pace sends the plan's frames open-loop: frame k goes out at its due
// time whether or not the engine kept up, so a stall delays every later
// frame and the verdict latency, measured from the due time, shows it.
// sampleDepth also samples the summed shard queue depth every 10 ticks.
func pace(e *stream.Engine, plan *pacedPlan, sampleDepth bool) (pacedOut, error) {
	var out pacedOut
	s := newSender(e, nil)
	s.dec.Reset(bytes.NewReader(plan.stream))
	out.start = time.Now().Add(time.Millisecond)
	out.lags = make([]time.Duration, 0, len(plan.due))
	for k, due := range plan.due {
		at := out.start.Add(due)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		out.lags = append(out.lags, time.Since(at))
		more, err := s.next()
		if err != nil {
			return out, err
		}
		if !more {
			return out, fmt.Errorf("paced stream ended at frame %d of %d", k, len(plan.due))
		}
		if sampleDepth && k%10 == 0 {
			depth := 0
			for _, q := range e.Stats().QueueDepths {
				depth += q
			}
			if depth > out.depthMax {
				out.depthMax = depth
			}
		}
	}
	if err := awaitProcessed(e, s.accepted); err != nil {
		return out, err
	}
	out.sendStats = s.sendStats
	return out, nil
}

// verdictLatencies maps each action to the frame that carried its
// triggering event and returns arrival minus that frame's due time.
// Actions with no such frame are counted as unmatched.
func verdictLatencies(c *collector, plan *pacedPlan, start time.Time) (lat []time.Duration, unmatched int) {
	for i, a := range c.got {
		k, ok := plan.uerFrame[actionKey{a.Bank.BankKey(), a.Time.UnixNano()}]
		if !ok {
			unmatched++
			continue
		}
		lat = append(lat, c.at[i].Sub(start.Add(plan.due[k])))
	}
	return lat, unmatched
}

// serveBin posts each frame as its own POST /v1/events.bin request to a
// Server over a separate engine, in process, and returns the mean time
// per request. Every record must be accepted.
func serveBin(sc scale, model []byte, walDir string, in []byte, g *tally) (time.Duration, error) {
	b, err := boot(sc, model, walDir)
	if err != nil {
		return 0, err
	}
	srv := stream.NewServer(b.engine, stream.ServerConfig{})
	frames := frameSpans(in)
	var total time.Duration
	accepted, sent := 0, 0
	lastBad := ""
	for _, fr := range frames {
		sent += (len(fr) - 8) / mcelog.WireRecordSize
		body := io.MultiReader(bytes.NewReader([]byte(wireMagic)), bytes.NewReader(fr))
		req := httptest.NewRequest(http.MethodPost, "/v1/events.bin", body)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		total += time.Since(t0)
		var res stream.IngestResult
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
			lastBad = fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String())
			continue
		}
		accepted += res.Accepted
	}
	g.attempt(sent)
	g.check(sent-accepted, "serve_bin: %d of %d records not accepted (last failed request: %s)", sent-accepted, sent, lastBad)
	if err := b.engine.Close(); err != nil {
		return 0, err
	}
	srv.AwaitDrained()
	if len(frames) == 0 {
		return 0, nil
	}
	return total / time.Duration(len(frames)), nil
}
