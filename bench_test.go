package cordial

// Benchmarks regenerating every table and figure of the paper (one bench per
// experiment, per DESIGN.md §3) plus the DESIGN.md §4 ablations. They run at
// reduced scale so `go test -bench=.` completes in minutes; cmd/cordial-repro
// regenerates the full-scale numbers recorded in EXPERIMENTS.md.

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/experiments"
	"cordial/internal/features"
	"cordial/internal/mcelog"
	"cordial/internal/mltree"
	"cordial/internal/stream"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

// benchParams returns a reduced-scale configuration for benchmarking.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Spec.UERBanks = 60
	p.Spec.BenignBanks = 150
	p.Model = core.ModelParams{Trees: 15, Depth: 8, Leaves: 15}
	return p
}

func BenchmarkTableI(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableI(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableII(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_TableIV regenerates both evaluation tables (they share
// one training run, as in the paper).
func BenchmarkTableIII_TableIV(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		t3, t4, err := experiments.RunEvaluation(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := t3.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := t4.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3a(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3a(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3b(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3b(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUERBudget(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationUERBudget(p, []int{1, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockGeometry(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBlockGeometry(p, []int{8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationWindow(p, []int{32, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFeatures(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationFeatures(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainPipeline measures end-to-end training cost (both stages).
func BenchmarkTrainPipeline(b *testing.B) {
	spec := DefaultFleetSpec()
	spec.UERBanks = 60
	spec.BenignBanks = 0
	fleet, err := Simulate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params = ModelParams{Trees: 15, Depth: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainWithConfig(cfg, fleet.Faults); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyPattern measures single-bank inference latency.
func BenchmarkClassifyPattern(b *testing.B) {
	spec := DefaultFleetSpec()
	spec.UERBanks = 60
	spec.BenignBanks = 0
	fleet, err := Simulate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params = ModelParams{Trees: 15, Depth: 8}
	pipe, err := TrainWithConfig(cfg, fleet.Faults)
	if err != nil {
		b.Fatal(err)
	}
	events := fleet.Faults[0].Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.ClassifyPattern(events); err != nil {
			b.Fatal(err)
		}
	}
}

// streamBenchState shares one trained pipeline and one replay log across
// the StreamIngest benchmarks; training dominates setup and must not be
// re-paid per shard count.
var streamBenchState = sync.OnceValues(func() (*Pipeline, []Event) {
	spec := DefaultFleetSpec()
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 21
	trainFleet, err := Simulate(spec)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params = ModelParams{Trees: 10, Depth: 8}
	pipe, err := TrainWithConfig(cfg, trainFleet.Faults)
	if err != nil {
		panic(err)
	}
	liveSpec := spec
	liveSpec.UERBanks = 40
	liveSpec.BenignBanks = 120
	liveSpec.Seed = 22
	live, err := Simulate(liveSpec)
	if err != nil {
		panic(err)
	}
	live.Log.Sort()
	return pipe, live.Log.Events()
})

// benchmarkStreamIngest replays the shared fleet log through a fresh
// engine and reports end-to-end ingest throughput (enqueue + session +
// inference) for one shard count. This is the perf baseline for the hot
// online path; shard scaling should be roughly linear up to GOMAXPROCS on
// multicore hosts.
func benchmarkStreamIngest(b *testing.B, shards int) {
	pipe, events := streamBenchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultStreamConfig(pipe)
		cfg.Shards = shards
		cfg.QueueDepth = 4096
		engine, err := NewStreamEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range engine.Actions() {
			}
		}()
		for _, e := range events {
			if err := engine.Ingest(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := engine.Close(); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkStreamIngest measures online ingest throughput at 1 shard, 4
// shards and GOMAXPROCS shards (the cordial-serve default).
func BenchmarkStreamIngest(b *testing.B) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, n := range shardCounts {
		if seen[n] {
			continue
		}
		seen[n] = true
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchmarkStreamIngest(b, n) })
	}
}

// BenchmarkStreamSessionOnEvent isolates per-event session cost (feature
// extraction + ensemble inference) without the engine around it.
func BenchmarkStreamSessionOnEvent(b *testing.B) {
	pipe, events := streamBenchState()
	strategy := NewStrategy(pipe, DefaultGeometry)
	perBank := make(map[uint64][]Event)
	for _, e := range events {
		k := e.Addr.BankKey()
		perBank[k] = append(perBank[k], e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bankEvents := range perBank {
			sess := strategy.NewSession(BankOf(bankEvents[0].Addr))
			for _, e := range bankEvents {
				sess.OnEvent(e)
			}
		}
	}
}

// longSessionEvents synthesises one bank's n-event history with the shape
// that stresses per-event session cost over a long life: a slowly drifting
// CE cluster with a UER on every 10th event at a previously unseen row, so
// the first three UER rows are tightly clustered (the pattern stage reads
// the bank as an aggregation failure) and block predictions keep firing
// across the whole history instead of only during a short burst.
func longSessionEvents(n int) []Event {
	r := xrand.New(7)
	const baseRow = 4096
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e := Event{
			Time:  start.Add(time.Duration(i) * 30 * time.Second),
			Class: ecc.ClassCE,
		}
		e.Addr.Row = baseRow + i/10
		if i%10 == 9 {
			e.Class = ecc.ClassUER
		} else {
			e.Addr.Row += r.Intn(4)
		}
		e.Addr.Column = r.Intn(DefaultGeometry.ColsPerBank)
		events = append(events, e)
	}
	return events
}

// BenchmarkSessionOnEvent measures per-event cost of one long-lived bank
// session at two history lengths. The headline metric is ns/event: it must
// stay flat between history=1000 and history=10000 — per-event work that
// grows with session age is exactly the O(history²) failure mode the
// incremental feature state exists to prevent.
func BenchmarkSessionOnEvent(b *testing.B) {
	pipe, _ := streamBenchState()
	strategy := NewStrategy(pipe, DefaultGeometry)
	for _, h := range []int{1000, 10000} {
		events := longSessionEvents(h)
		b.Run(fmt.Sprintf("history=%d", h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess := strategy.NewSession(BankOf(events[0].Addr))
				for _, e := range events {
					sess.OnEvent(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h), "ns/event")
		})
	}
}

// BenchmarkStreamIngestLongSession replays the same single-bank long
// histories through the full engine (1 shard, so the session path is the
// bottleneck): the end-to-end ns/event must stay flat with history length
// just like the bare-session benchmark.
func BenchmarkStreamIngestLongSession(b *testing.B) {
	pipe, _ := streamBenchState()
	for _, h := range []int{1000, 10000} {
		events := longSessionEvents(h)
		b.Run(fmt.Sprintf("history=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultStreamConfig(pipe)
				cfg.Shards = 1
				cfg.QueueDepth = 4096
				engine, err := NewStreamEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range engine.Actions() {
					}
				}()
				for _, e := range events {
					if err := engine.Ingest(e); err != nil {
						b.Fatal(err)
					}
				}
				if err := engine.Close(); err != nil {
					b.Fatal(err)
				}
				<-done
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h), "ns/event")
		})
	}
}

// mltreeBenchData is a seeded multi-class dataset shared by the mltree
// training/inference benchmarks (3 classes so the boosting backends fit
// several one-vs-rest arms).
var mltreeBenchData = sync.OnceValue(func() *mltree.Dataset {
	const classes, perClass, dims = 3, 400, 12
	r := xrand.New(99)
	ds := &mltree.Dataset{}
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			row := make([]float64, dims)
			for d := range row {
				row[d] = 3*float64((c+d)%classes) + r.Normal(0, 2.5)
			}
			ds.Features = append(ds.Features, row)
			ds.Labels = append(ds.Labels, c)
		}
	}
	return ds
})

// benchParallelisms runs fn at parallelism 1 and GOMAXPROCS (deduplicated on
// single-core hosts).
func benchParallelisms(b *testing.B, fn func(b *testing.B, parallelism int)) {
	seen := map[int]bool{}
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		if seen[p] {
			continue
		}
		seen[p] = true
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) { fn(b, p) })
	}
}

// BenchmarkForestFit measures Random Forest training cost on the shared
// dataset at 1 worker vs all cores.
func BenchmarkForestFit(b *testing.B) {
	ds := mltreeBenchData()
	benchParallelisms(b, func(b *testing.B, parallelism int) {
		for i := 0; i < b.N; i++ {
			f := mltree.NewForest(mltree.ForestConfig{
				NumTrees: 20, Tree: mltree.TreeConfig{MaxDepth: 10},
				Parallelism: parallelism, Seed: 5,
			})
			if err := f.Fit(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistGBDTFit measures histogram-GBDT training cost (multi-class,
// so arms fit concurrently) at 1 worker vs all cores.
func BenchmarkHistGBDTFit(b *testing.B) {
	ds := mltreeBenchData()
	benchParallelisms(b, func(b *testing.B, parallelism int) {
		for i := 0; i < b.N; i++ {
			h := mltree.NewHistGBDT(mltree.HistGBDTConfig{
				Rounds: 20, Parallelism: parallelism, Seed: 5,
			})
			if err := h.Fit(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredictBatch measures offline batch inference (the worker-pool
// path fitting, calibration and evaluation use) over the whole dataset at 1
// worker vs all cores. Serving does not take this path: it scores one row
// at a time through PredictProbaInto (BenchmarkBlockWindow).
func BenchmarkPredictBatch(b *testing.B) {
	ds := mltreeBenchData()
	f := mltree.NewForest(mltree.ForestConfig{
		NumTrees: 20, Tree: mltree.TreeConfig{MaxDepth: 10}, Seed: 5,
	})
	if err := f.Fit(ds); err != nil {
		b.Fatal(err)
	}
	benchParallelisms(b, func(b *testing.B, parallelism int) {
		f.Config.Parallelism = parallelism
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := f.PredictBatch(ds.Features); len(got) != ds.NumSamples() {
				b.Fatal("short batch")
			}
		}
		b.ReportMetric(float64(ds.NumSamples()*b.N)/b.Elapsed().Seconds(), "rows/sec")
	})
}

// blockWindow is a served-size pipeline (an 80-tree block forest) and a
// bank state positioned on its third UER: one window of the per-UER hot
// path.
type blockWindow struct {
	pipe   *Pipeline
	state  *features.BankState
	anchor int
	now    time.Time
}

var blockWindowBench = sync.OnceValue(func() blockWindow {
	spec := DefaultFleetSpec()
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 23
	fleet, err := Simulate(spec)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Params.Trees = 80
	pipe, err := TrainWithConfig(cfg, fleet.Faults)
	if err != nil {
		panic(err)
	}
	for _, bf := range fleet.Faults {
		if len(bf.UERRows) < 3 {
			continue
		}
		st, err := pipe.NewBankState()
		if err != nil {
			panic(err)
		}
		now := bf.UERTimes[2]
		for _, e := range bf.Events {
			if !e.Time.After(now) {
				st.Observe(e)
			}
		}
		return blockWindow{pipe: pipe, state: st, anchor: bf.UERRows[2], now: now}
	}
	panic("no bank with three UERs")
})

// BenchmarkBlockWindow measures the serving path of one UER: a 16-block
// window scored through PredictBlocksState (block vectors into pooled
// scratch, rows scored serially through the packed tree arena). It reports
// ns/window; allocs/op is allocations per window.
func BenchmarkBlockWindow(b *testing.B) {
	w := blockWindowBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.pipe.PredictBlocksState(w.state, w.anchor, w.now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}

// BenchmarkStability aggregates the headline comparison over three seeds.
func BenchmarkStability(b *testing.B) {
	p := benchParams()
	p.Spec.BenignBanks = 0
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStability(p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorValidation cross-checks the two generation paths.
func BenchmarkGeneratorValidation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGeneratorValidation(p, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkBinaryIngest replays the shared fleet log through the binary
// wire path: pre-encoded frames are decoded with a reused FrameDecoder and
// moved into the engine whole-frame via IngestBatch — the exact hot loop of
// POST /v1/events.bin. walDir != "" adds the durable path (group-commit WAL,
// one AppendBatch per frame).
func benchmarkBinaryIngest(b *testing.B, shards int, durable bool) {
	pipe, events := streamBenchState()
	var encBuf bytes.Buffer
	enc := mcelog.NewFrameEncoder(&encBuf, 1024)
	for _, e := range events {
		if err := enc.Add(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := encBuf.Bytes()
	dec := mcelog.NewFrameDecoder(nil)
	batch := make([]Event, 0, 1024)
	base := b.TempDir()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultStreamConfig(pipe)
		cfg.Shards = shards
		cfg.QueueDepth = 4096
		if durable {
			cfg.Durability = stream.DurabilityConfig{
				Dir:  filepath.Join(base, fmt.Sprintf("run%d", i)),
				Sync: wal.SyncAlways, // group commit on by default
			}
		}
		engine, err := NewStreamEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range engine.Actions() {
			}
		}()
		dec.Reset(bytes.NewReader(raw))
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
			for j, n := 0, fr.Len(); j < n; j++ {
				batch = append(batch, fr.Event(j))
			}
			if acc, _, err := engine.IngestBatch(batch); err != nil || acc != len(batch) {
				b.Fatalf("IngestBatch = (%d, %v), want %d", acc, err, len(batch))
			}
		}
		if err := engine.Close(); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	b.ReportMetric(float64(len(events)*b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(events)*b.N), "ns/event")
}

// BenchmarkBinaryIngest is the end-to-end binary ingest benchmark: decode +
// batch-enqueue + session inference, in memory and with the group-commit
// WAL. Decode cost alone (the zero-allocation bound) is pinned separately
// by BenchmarkWireFrameDecode in internal/mcelog.
func BenchmarkBinaryIngest(b *testing.B) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, n := range shardCounts {
		if seen[n] {
			continue
		}
		seen[n] = true
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchmarkBinaryIngest(b, n, false) })
	}
	b.Run("durable/group-commit", func(b *testing.B) { benchmarkBinaryIngest(b, runtime.GOMAXPROCS(0), true) })
}
