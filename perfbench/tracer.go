package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the layer call a span wraps.
type spanName uint8

const (
	spFrame spanName = iota // one frame of the serial replay: the parent of its per-event spans
	spDecode
	spValidate
	spIngestBatch
	spObserve
	spClassify
	spPredict
	spBlockVector
	spPredictRows
	spSnapshot
	spWALAppend
	spWALReplay
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spFrame:       "replay.frame",
	spDecode:      "mcelog.decode",
	spValidate:    "mcelog.validate",
	spIngestBatch: "stream.ingest_batch",
	spObserve:     "features.observe",
	spClassify:    "core.classify",
	spPredict:     "core.predict_blocks",
	spBlockVector: "features.block_vector",
	spPredictRows: "core.predict_rows",
	spSnapshot:    "stream.snapshot",
	spWALAppend:   "wal.append_batch",
	spWALReplay:   "wal.replay",
}

// span is one recorded call. Ids start at 1; parent 0 means a root span.
type span struct {
	id, parent int32
	name       spanName
	start, end int64 // nanoseconds since the tracer's base, monotonic
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths stay branch-light.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name spanName, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: t.now()})
	return id
}

// restart moves a span's start to now. The replay opens the predict span
// first so the block-vector spans it times just before the call can name
// it as their parent, then restarts it when the call begins.
func (t *tracer) restart(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].start = t.now()
}

// end closes a span.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = t.now()
}

// layerAgg is the derived view of one span name: call count, total and
// self time (duration minus the durations of its child spans), and each
// call's duration for percentiles.
type layerAgg struct {
	calls       int
	total, self time.Duration
	durs        []time.Duration
}

// selfTimes aggregates the spans by name.
func (t *tracer) selfTimes() [numSpanNames]layerAgg {
	var agg [numSpanNames]layerAgg
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for _, s := range t.spans {
		d := s.end - s.start
		a := &agg[s.name]
		a.calls++
		a.total += time.Duration(d)
		a.self += time.Duration(d - child[s.id])
		a.durs = append(a.durs, time.Duration(d))
	}
	return agg
}

// write saves the spans as CSV: id, parent, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// perCall is the mean self time of a layer's calls in unit; 0 without calls.
func (a layerAgg) perCall(unit time.Duration) float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.self) / float64(a.calls) / float64(unit)
}
