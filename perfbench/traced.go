package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cordial/internal/core"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
	"cordial/internal/wal"
)

// perEvent is a layer's total self time per event, in microseconds.
func perEvent(a layerAgg, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(a.self) / float64(time.Microsecond) / float64(events)
}

// ingestLayers fills the per-layer metrics of the traced pass and appends the reconciliation line: the Σ of layer self times per
// event against the untraced cpu_us_per_event of the same run. The
// unaccounted share is engine overhead the driver cannot see from outside
// (rings, locks, goroutine hand-off, GC). walUS is the per-event WAL
// append time of the bench's own journal, 0 for an in-memory workload;
// fsync waits are wall time, so with it the share can go negative.
func ingestLayers(rep *report, workload string, tr *tracer, sat satOut, rp replayOut, cpuRef, walUS float64) {
	agg := tr.selfTimes()
	v := rep.values
	n := float64(sat.sent)
	v["mcelog.decode_ns_per_event"] = float64(agg[spDecode].self) / n
	v["mcelog.validate_ns_per_event"] = float64(agg[spValidate].self) / n
	batch := durations(agg[spIngestBatch].durs, time.Microsecond)
	v["stream.ingest_batch_us_p50"] = quantile(batch, 0.50)
	v["stream.ingest_batch_us_p99"] = quantile(batch, 0.99)
	v["stream.ingest_blocked_frac"] = float64(agg[spIngestBatch].total) / float64(sat.wall)
	v["stream.sessions"] = float64(sat.stats.SessionsLive)
	v["stream.actions"] = float64(sat.stats.ActionsEmitted)
	v["features.observe_ns"] = agg[spObserve].perCall(time.Nanosecond)
	v["features.state_bytes_per_session"] = float64(rp.stateBytes) / float64(max(rp.sessions, 1))
	v["core.classify_calls"] = float64(rp.classifyCalls)
	v["core.predict_calls"] = float64(rp.predictCalls)
	v["runtime.gc_cycles"] = float64(sat.gcCycles)
	v["runtime.gc_pause_ms"] = float64(sat.gcPause) / float64(time.Millisecond)

	type part struct {
		name string
		us   float64
	}
	parts := []part{
		{"decode", perEvent(agg[spDecode], sat.sent)},
		{"validate", perEvent(agg[spValidate], sat.sent)},
		{"observe", perEvent(agg[spObserve], rp.events)},
		{"classify", perEvent(agg[spClassify], rp.events)},
		{"block_vector", perEvent(agg[spBlockVector], rp.events)},
		{"mltree", perEvent(agg[spPredict], rp.events)},
		{"predict_rows", perEvent(agg[spPredictRows], rp.events)},
	}
	if walUS > 0 {
		parts = append(parts, part{"wal_append", walUS})
	}
	sum := 0.0
	detail := ""
	for _, p := range parts {
		sum += p.us
		detail += fmt.Sprintf(" %s=%.4f", p.name, p.us)
	}
	unaccounted := 0.0
	if cpuRef > 0 {
		unaccounted = 1 - sum/cpuRef
	}
	rep.lines = append(rep.lines, fmt.Sprintf(
		"reconcile %s: layers %.4f us/event (%s) vs untraced cpu_us_per_event %.4f; unaccounted %.1f%% "+
			"(engine overhead: rings, locks, goroutine hand-off, GC); replay bookkeeping %.4f us/event",
		workload, sum, detail[1:], cpuRef, 100*unaccounted, perEvent(agg[spFrame], rp.events)))
}

// writeSpans saves a traced run's spans under the work directory.
func writeSpans(opts options, tr *tracer, rep *report) error {
	path := filepath.Join(opts.work, "spans-"+opts.workload+".csv")
	if err := tr.write(path); err != nil {
		return err
	}
	rep.meta["spans"] = map[string]any{"file": path, "count": len(tr.spans)}
	return nil
}

// runPaced is one open-loop pass over a fresh durable engine, sampling
// the summed shard queue depth. It returns the verdict latencies of the
// actions the pass emitted.
func runPaced(opts options, in ingestInputs, plan *pacedPlan, ref []stream.Action, g *tally) (pacedOut, []time.Duration, error) {
	dir := filepath.Join(opts.work, "paced-wal")
	if err := os.RemoveAll(dir); err != nil {
		return pacedOut{}, nil, err
	}
	defer os.RemoveAll(dir)
	b, err := boot(opts.sc, in.model, dir)
	if err != nil {
		return pacedOut{}, nil, err
	}
	col := collect(b.engine)
	p, err := pace(b.engine, plan, true)
	if err != nil {
		b.engine.Close()
		return p, nil, err
	}
	st := b.engine.Stats()
	if err := b.engine.Close(); err != nil {
		return p, nil, err
	}
	<-col.done
	checkIngest(g, "paced", p.sendStats, st)
	g.attempt(len(ref))
	g.check(actionMismatch(col.got, ref), "paced: actions differ from the reference replay")
	lat, unmatched := verdictLatencies(col, plan, p.start)
	g.check(unmatched, "paced: %d actions match no sent UER", unmatched)
	g.check(btoi(len(lat) == 0), "paced: no verdicts to time")
	return p, lat, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ingestTraced is the traced run of a workload: an untraced pass for the
// reconciliation, a traced pass, an open-loop paced pass, the serial
// replay (timed, then counting allocations), POST /v1/events.bin and the
// bench's own WAL.
func ingestTraced(opts options, rep *report, in ingestInputs, pipe *core.Pipeline, ref []stream.Action) error {
	g := &rep.gates
	plan, err := planPaced(in.events, opts.sc.pacedRate, opts.sc.tick)
	if err != nil {
		return err
	}
	base, err := runIngestPass(opts, in, ref, nil, g)
	if err != nil {
		return err
	}
	cpuRef := float64(base.sat.cpu) / float64(time.Microsecond) / float64(base.sat.sent)
	tr := newTracer()
	p, err := runIngestPass(opts, in, ref, tr, g)
	if err != nil {
		return err
	}
	paced, lat, err := runPaced(opts, in, plan, ref, g)
	if err != nil {
		return err
	}
	rp, err := replay(pipe, geometry(), in.stream, tr, false)
	if err != nil {
		return err
	}
	checkReplay(g, rp, ref)
	allocs, err := replay(pipe, geometry(), in.stream, nil, true)
	if err != nil {
		return err
	}
	checkReplay(g, allocs, ref)
	serveDir := filepath.Join(opts.work, "serve-wal")
	if err := os.RemoveAll(serveDir); err != nil {
		return err
	}
	serve, err := serveBin(opts.sc, in.model, serveDir, in.stream, g)
	os.RemoveAll(serveDir)
	if err != nil {
		return err
	}
	wb, err := walBench(filepath.Join(opts.work, "bench-wal"), in.stream, tr, g)
	if err != nil {
		return err
	}

	ingestLayers(rep, opts.workload, tr, p.sat, rp, cpuRef, wb.appendUSPerEvent)
	agg := tr.selfTimes()
	v := rep.values
	v["stream.queue_depth_max"] = float64(paced.depthMax)
	v["stream.snapshot_ms"] = ms(p.sat.snapshot)
	v["stream.serve_bin_us_per_frame"] = float64(serve) / float64(time.Microsecond)
	v["features.block_vector_ns"] = agg[spBlockVector].perCall(time.Nanosecond)
	v["core.classify_us"] = agg[spClassify].perCall(time.Microsecond)
	predict := durations(agg[spPredict].durs, time.Microsecond)
	v["core.predict_blocks_us_p50"] = quantile(predict, 0.50)
	v["core.predict_blocks_us_p99"] = quantile(predict, 0.99)
	v["core.predict_allocs_per_call"] = float64(allocs.predictMallocs) / float64(max(allocs.predictCalls, 1))
	v["core.predict_yield"] = float64(rp.yielding) / float64(max(rp.predictCalls, 1))
	v["mltree.predict_us_per_window"] = agg[spPredict].perCall(time.Microsecond)
	v["core.load_models_ms"] = median([]float64{ms(base.load), ms(p.load)})
	appends := durations(agg[spWALAppend].durs, time.Microsecond)
	v["wal.append_batch_us_p50"] = quantile(appends, 0.50)
	v["wal.append_batch_us_p99"] = quantile(appends, 0.99)
	v["wal.bytes_per_event"] = wb.bytesPerEvent
	v["wal.replay_ms"] = ms(agg[spWALReplay].total)
	v["loadgen.lag_p99_ms"] = quantile(durations(paced.lags, time.Millisecond), 0.99)

	latMS := durations(lat, time.Millisecond)
	rep.lines = append(rep.lines, fmt.Sprintf(
		"verdict_p50_ms %.4f ms verdict_p99_ms %.4f ms (unbounded; one paced pass at %.0f events/s, %d verdicts)",
		quantile(latMS, 0.50), quantile(latMS, 0.99), opts.sc.pacedRate, len(lat)))
	rep.meta["input_digest"] = digest(in.model, in.stream, plan.stream)
	rep.meta["paced"] = map[string]any{"rate_eps": opts.sc.pacedRate,
		"tick_ms": float64(opts.sc.tick) / float64(time.Millisecond), "frames": len(plan.due)}
	rep.meta["samples"] = map[string]int{"ingest_batch": agg[spIngestBatch].calls,
		"predict_blocks": agg[spPredict].calls, "wal_append": agg[spWALAppend].calls,
		"verdicts": len(lat), "lag_ticks": len(paced.lags), "load_models": 2}
	rep.meta["recovery_s_traced_pass"] = p.recovery.Seconds()
	return writeSpans(opts, tr, rep)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkReplay requires the serial replay to decide exactly as the
// reference sessions did, so it times the same work the engine does.
func checkReplay(g *tally, rp replayOut, ref []stream.Action) {
	g.attempt(len(ref))
	g.check(actionMismatch(rp.actions, ref), "replay: actions differ from the reference replay")
	g.check(rp.errors, "replay: %d pipeline errors", rp.errors)
}

// walOut is the bench's own WAL measurement.
type walOut struct {
	appendUSPerEvent, bytesPerEvent float64
}

// walBench journals every frame of the stream with WAL.AppendBatch in the
// engine's record format (mcelog.AppendWireRecord, fsync always, group
// commit), then times wal.Open + Replay over the result.
func walBench(dir string, in []byte, tr *tracer, g *tally) (walOut, error) {
	var out walOut
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{Sync: wal.SyncAlways, GroupCommit: true}
	w, err := wal.Open(dir, opts)
	if err != nil {
		return out, err
	}
	dec := mcelog.NewFrameDecoder(bytes.NewReader(in))
	var payload []byte
	events := 0
	var appendTime time.Duration
	for {
		fr, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			w.Close()
			return out, err
		}
		payload = payload[:0]
		for i, n := 0, fr.Len(); i < n; i++ {
			payload = mcelog.AppendWireRecord(payload, fr.Event(i))
		}
		t0 := time.Now()
		id := tr.begin(spWALAppend, 0)
		_, err = w.AppendBatch(payload, mcelog.WireRecordSize)
		tr.end(id)
		appendTime += time.Since(t0)
		if err != nil {
			w.Close()
			return out, fmt.Errorf("wal append: %w", err)
		}
		events += fr.Len()
	}
	if err := w.Close(); err != nil {
		return out, err
	}
	size := int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			size += info.Size()
		}
	}
	id := tr.begin(spWALReplay, 0)
	w2, err := wal.Open(dir, opts)
	if err != nil {
		return out, err
	}
	replayed := 0
	err = w2.Replay(func(uint64, []byte) error { replayed++; return nil })
	tr.end(id)
	if cerr := w2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, fmt.Errorf("wal replay: %w", err)
	}
	g.attempt(events)
	g.check(abs(events-replayed), "wal: replayed %d of %d records", replayed, events)
	if events > 0 {
		out.appendUSPerEvent = float64(appendTime) / float64(time.Microsecond) / float64(events)
		out.bytesPerEvent = float64(size) / float64(events)
	}
	return out, nil
}
