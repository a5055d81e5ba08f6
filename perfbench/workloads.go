package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
	"cordial/internal/wal"
)

// ingestInputs is the prepared input of a workload.
type ingestInputs struct {
	model  []byte
	events []mcelog.Event
	stream []byte // CBF2, DefaultFrameEvents records per frame
	frames int
	banks  int
}

func prepareIngest(opts options, uer, benign int) (ingestInputs, []*faultsim.BankFault, error) {
	var in ingestInputs
	model, err := trainModel(opts.sc)
	if err != nil {
		return in, nil, err
	}
	fleet, err := generate(liveSeed(opts.seed), uer, benign)
	if err != nil {
		return in, nil, err
	}
	in.model = model
	in.events = fleet.Log.Events()
	if in.stream, err = encodeFrames(in.events, mcelog.DefaultFrameEvents); err != nil {
		return in, nil, err
	}
	in.frames = len(frameSpans(in.stream))
	in.banks = distinctBanks(in.events)
	return in, fleet.Faults, nil
}

// checkIngest applies the admission gates of one pass: every record sent
// was accepted, every accepted event processed, no action evicted.
func checkIngest(g *tally, what string, s sendStats, st stream.EngineStats) {
	g.attempt(s.sent)
	g.check(s.sent-s.accepted, "%s: accepted %d of %d sent (rejected %d, dropped %d, errored %d)",
		what, s.accepted, s.sent, s.rejected, s.dropped, s.errored)
	g.check(int(st.Ingested)-int(st.Processed), "%s: processed %d of %d ingested", what, st.Processed, st.Ingested)
	g.check(int(st.ActionsDropped), "%s: %d actions dropped", what, st.ActionsDropped)
}

// phase runs pass at least once and again while another pass is expected
// to finish within budget.
func phase(budget time.Duration, pass func() error) error {
	t0 := time.Now()
	for {
		p0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		if last := time.Since(p0); time.Since(t0)+last > budget {
			return nil
		}
	}
}

// ingestPass is one pass of a workload: boot over an empty WAL
// directory, saturate with one snapshot midway, Close, reopen.
type ingestPass struct {
	sat      satOut
	setup    time.Duration
	load     time.Duration
	recovery time.Duration
	heapMB   float64
	actions  []stream.Action // emitted while ingesting
	late     []stream.Action // re-emitted by the reopen's journal replay
}

func runIngestPass(opts options, in ingestInputs, ref []stream.Action, tr *tracer, g *tally) (ingestPass, error) {
	var p ingestPass
	dir := filepath.Join(opts.work, "wal")
	if err := os.RemoveAll(dir); err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	base := liveHeap()
	b, err := boot(opts.sc, in.model, dir)
	if err != nil {
		return p, err
	}
	p.setup, p.load = b.setup, b.load
	col := collect(b.engine)
	p.sat, err = saturate(b.engine, in.stream, in.frames/2, tr)
	if err != nil {
		return p, err
	}
	p.heapMB = mb(int64(liveHeap()) - int64(base))
	before := b.engine.Sessions()
	if err := b.engine.Close(); err != nil {
		return p, err
	}
	<-col.done
	p.actions = col.got
	checkIngest(g, "saturation", p.sat.sendStats, p.sat.stats)
	g.attempt(len(ref))
	g.check(actionMismatch(col.got, ref), "saturation: actions differ from the reference replay")
	g.attempt(in.banks)
	g.check(abs(len(before)-in.banks), "saturation: %d sessions for %d banks", len(before), in.banks)

	t0 := time.Now()
	e2, err := stream.New(b.cfg)
	if err != nil {
		return p, fmt.Errorf("reopening the WAL directory: %w", err)
	}
	p.recovery = time.Since(t0)
	after := e2.Sessions()
	if err := e2.Close(); err != nil {
		return p, err
	}
	for a := range e2.Actions() {
		p.late = append(p.late, a)
	}
	g.attempt(len(before))
	g.check(sessionMismatch(before, after), "restart: sessions after the reopen differ from those before Close")
	g.attempt(len(p.late))
	g.check(actionsOutside(p.late, ref), "restart: the journal replay emitted actions the reference never did")
	return p, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func runIngest(opts options, rep *report) error {
	sc := opts.sc
	uer, benign := liveFleet(sc, opts.workload)
	in, faults, err := prepareIngest(opts, uer, benign)
	if err != nil {
		return err
	}
	pipe, err := loadPipeline(sc, in.model)
	if err != nil {
		return err
	}
	ref := referenceActions(pipe, geometry(), in.events)
	rep.meta["input_digest"] = digest(in.model, in.stream)
	rep.meta["live_fleet"] = map[string]int{"uer_banks": uer, "benign_banks": benign,
		"banks": in.banks, "events": len(in.events), "frames": in.frames, "reference_actions": len(ref)}
	rep.meta["wal"] = map[string]any{"sync": wal.SyncAlways.String(), "group_commit": true}
	if opts.traced {
		return ingestTraced(opts, rep, in, pipe, ref)
	}

	g := &rep.gates
	// The first pass warms the heap, the page cache and the CPU caches; it
	// is checked like every other pass but left out of the medians.
	warm, err := runIngestPass(opts, in, ref, nil, g)
	if err != nil {
		return err
	}
	var setups, eps, cpu, allocs, heap, rec, snaps []float64
	err = phase(opts.seconds, func() error {
		p, err := runIngestPass(opts, in, ref, nil, g)
		if err != nil {
			return err
		}
		n := float64(p.sat.sent)
		setups = append(setups, p.setup.Seconds())
		eps = append(eps, n/p.sat.wall.Seconds())
		cpu = append(cpu, float64(p.sat.cpu)/float64(time.Microsecond)/n)
		allocs = append(allocs, float64(p.sat.mallocs)/n)
		heap = append(heap, p.heapMB)
		rec = append(rec, p.recovery.Seconds())
		snaps = append(snaps, p.sat.snapshot.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	v := rep.values
	v["setup_s"] = median(setups)
	v["ingest_eps"] = median(eps)
	v["cpu_us_per_event"] = median(cpu)
	v["allocs_per_event"] = median(allocs)
	v["live_heap_mb"] = median(heap)
	v["recovery_s"] = median(rec)
	v["icr"] = actionICR(warm.actions, faults)
	rep.meta["per_pass"] = map[string][]float64{"setup_s": setups, "ingest_eps": eps,
		"cpu_us_per_event": cpu, "recovery_s": rec, "snapshot_s": snaps}
	rep.meta["samples"] = map[string]int{"passes": len(eps), "warmup_passes": 1}
	return nil
}
