package main

import (
	"bytes"
	"errors"
	"io"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
)

// replaySession is one bank's state in the serial replay, the public-call
// counterpart of cordialSession plus the engine's dedupe bookkeeping.
type replaySession struct {
	bank       hbm.BankAddress
	state      *features.BankState // nil once the bank is spared
	classified bool
	class      faultsim.Class
	spared     bool
	isolated   map[int]struct{}
}

// replayOut is what the serial replay did.
type replayOut struct {
	events, sessions            int
	actions                     []stream.Action
	classifyCalls, predictCalls int
	yielding                    int    // predict calls that isolated at least one new row
	predictMallocs              uint64 // with countAllocs
	stateBytes                  int    // summed Footprint of the states still held
	errors                      int
}

// replay decodes and validates a CBF2 stream and walks every event
// through the same control flow as cordialSession.OnEvent, using only
// public calls: BankState.Observe; ClassifyPatternState once the bank has
// its UER budget of distinct rows; PredictBlocksState and PredictRows on
// each new UER row of an aggregation bank. With a tracer every call gets
// a span; with countAllocs each PredictBlocksState call is bracketed by
// runtime.ReadMemStats (too slow to combine with timing).
func replay(pipe *core.Pipeline, geo hbm.Geometry, in []byte, tr *tracer, countAllocs bool) (replayOut, error) {
	var out replayOut
	cfg := pipe.Config()
	budget := cfg.Pattern.UERBudget
	nBlocks := cfg.Block.NumBlocks()
	sessions := map[uint64]*replaySession{}
	dec := mcelog.NewFrameDecoder(bytes.NewReader(in))
	var batch []mcelog.Event
	for {
		// Decode and validate are timed on the engine pass; here they only
		// feed the replay.
		fr, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return out, err
		}
		batch = batch[:0]
		for i, n := 0, fr.Len(); i < n; i++ {
			if ev := fr.Event(i); ev.Validate(geo) == nil {
				batch = append(batch, ev)
			}
		}
		frame := tr.begin(spFrame, 0)
		for _, ev := range batch {
			out.events++
			key := ev.Addr.BankKey()
			rs, ok := sessions[key]
			if !ok {
				st, err := pipe.NewBankState()
				if err != nil {
					return out, err
				}
				rs = &replaySession{bank: hbm.BankOf(ev.Addr), state: st, isolated: map[int]struct{}{}}
				sessions[key] = rs
			}
			if rs.state == nil {
				continue
			}
			st := rs.state
			prev := st.DistinctUERRows()
			id := tr.begin(spObserve, frame)
			st.Observe(ev)
			tr.end(id)
			if ev.Class != ecc.ClassUER || st.DistinctUERRows() == prev || st.DistinctUERRows() < budget {
				continue
			}
			if !rs.classified {
				id := tr.begin(spClassify, frame)
				class, err := pipe.ClassifyPatternState(st)
				tr.end(id)
				out.classifyCalls++
				if err != nil {
					out.errors++
					continue
				}
				rs.classified, rs.class = true, class
				if !class.IsAggregation() {
					rs.state = nil
					out.actions = appendDecision(out.actions, rs.bank, ev, class, true, nil, &rs.spared, rs.isolated)
					continue
				}
			}
			anchor := ev.Addr.Row
			pid := tr.begin(spPredict, frame)
			if tr != nil {
				for b := 0; b < nBlocks; b++ {
					id := tr.begin(spBlockVector, pid)
					if _, err := st.BlockVector(anchor, b, ev.Time); err != nil {
						return out, err
					}
					tr.end(id)
				}
				tr.restart(pid)
			}
			var m0 uint64
			if countAllocs {
				m0 = memStats().Mallocs
			}
			probs, err := pipe.PredictBlocksState(st, anchor, ev.Time)
			if countAllocs {
				out.predictMallocs += memStats().Mallocs - m0
			}
			tr.end(pid)
			out.predictCalls++
			if err != nil {
				out.errors++
				continue
			}
			id = tr.begin(spPredictRows, frame)
			rows := pipe.PredictRows(probs, anchor, geo)
			tr.end(id)
			before := len(out.actions)
			out.actions = appendDecision(out.actions, rs.bank, ev, rs.class, false, rows, &rs.spared, rs.isolated)
			if len(out.actions) > before {
				out.yielding++
			}
		}
		tr.end(frame)
	}
	out.sessions = len(sessions)
	for _, rs := range sessions {
		if rs.state != nil {
			out.stateBytes += rs.state.Footprint().ApproxBytes
		}
	}
	return out, nil
}
