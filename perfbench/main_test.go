package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cordial/internal/stream"
)

// tinyScale runs every workload in seconds.
func tinyScale() scale {
	return scale{
		trees:    5,
		trainUER: 40, trainBenign: 40,
		fleetUER: 40, fleetBenign: 60,
		noiseUER: 10, noiseBenign: 300,
		pacedRate: 20000,
		tick:      time.Millisecond,
	}
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  time.Second,
		traced:   traced,
		work:     t.TempDir(),
		sc:       tinyScale(),
	}
}

// TestWorkloadsEmitEveryMetric smoke-runs each workload in both modes and
// checks the result line: correct, and exactly the metrics the table of
// the mode lists, by name and with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := tinyOptions(t, w, traced)
			rep, err := runWorkload(opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			if err := emit(&out, opts, rep); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not a result: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d; gates: %v",
					w, traced, res.Correct, res.Failed, res.Attempted, rep.gates.reasons)
			}
			want := expected(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
			}
			if !strings.HasPrefix(lines[0], "meta {") {
				t.Errorf("%s traced=%v: first line %q is not the metadata", w, traced, lines[0])
			}
			if traced && !strings.Contains(out.String(), "reconcile "+w) {
				t.Errorf("%s: traced run printed no reconciliation line", w)
			}
			if traced && !strings.Contains(out.String(), "\nverdict_p50_ms ") {
				t.Errorf("%s: traced run printed no verdict latency line", w)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the driver's
// metric tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		g := make([]string, 0, len(got))
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		w := make([]string, 0, len(want))
		for _, d := range want {
			w = append(w, d.name+" "+d.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json lists %v, driver %v", kind, g, w)
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestActionGateCatchesMutation runs a real pass against a reference with
// one action changed: the gates must count it as missing, as unexpected,
// and once more for each copy the reopen's replay emits again.
func TestActionGateCatchesMutation(t *testing.T) {
	opts := tinyOptions(t, wFleet, false)
	uer, benign := liveFleet(opts.sc, opts.workload)
	in, _, err := prepareIngest(opts, uer, benign)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := loadPipeline(opts.sc, in.model)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceActions(pipe, geometry(), in.events)
	if len(ref) == 0 {
		t.Fatal("tiny fleet produced no reference actions")
	}
	var g tally
	p, err := runIngestPass(opts, in, ref, nil, &g)
	if err != nil {
		t.Fatal(err)
	}
	if g.failed != 0 {
		t.Fatalf("unmutated reference: %d failures: %v", g.failed, g.reasons)
	}
	want := 2
	for _, a := range p.late {
		if actionString(a) == actionString(ref[0]) {
			want++
		}
	}
	mutated := append([]stream.Action(nil), ref...)
	mutated[0].Time = mutated[0].Time.Add(time.Nanosecond)
	g = tally{}
	if _, err := runIngestPass(opts, in, mutated, nil, &g); err != nil {
		t.Fatal(err)
	}
	if g.failed != int64(want) {
		t.Errorf("one mutated action: %d failures, want %d; gates: %v", g.failed, want, g.reasons)
	}
}

// TestRestartGateCatchesMismatch takes the sessions of a real durable
// engine before Close and after a reopen: equal as recovered, and the
// gate must count a session that changed.
func TestRestartGateCatchesMismatch(t *testing.T) {
	opts := tinyOptions(t, wNoise, false)
	uer, benign := liveFleet(opts.sc, opts.workload)
	in, _, err := prepareIngest(opts, uer, benign)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(opts.work, "wal")
	b, err := boot(opts.sc, in.model, dir)
	if err != nil {
		t.Fatal(err)
	}
	col := collect(b.engine)
	if _, err := saturate(b.engine, in.stream, 1, nil); err != nil {
		t.Fatal(err)
	}
	before := b.engine.Sessions()
	if err := b.engine.Close(); err != nil {
		t.Fatal(err)
	}
	<-col.done
	e2, err := stream.New(b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := e2.Sessions()
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(before) != in.banks {
		t.Fatalf("%d sessions for %d banks", len(before), in.banks)
	}
	if n := sessionMismatch(before, after); n != 0 {
		t.Fatalf("recovered sessions differ: mismatch %d", n)
	}
	after[0].Events++
	if n := sessionMismatch(before, after); n != 2 {
		t.Errorf("one changed session: mismatch %d, want 2", n)
	}
	if n := sessionMismatch(before, after[1:]); n != 1 {
		t.Errorf("one lost session: mismatch %d, want 1", n)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("p50 = %v, want 3", q)
	}
}
