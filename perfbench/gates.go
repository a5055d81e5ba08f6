package main

import (
	"fmt"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/sparing"
	"cordial/internal/stream"
)

// referenceActions is the single-threaded offline replay the engine must
// match: one CordialStrategy session per bank fed its events in trace
// order, with the engine's per-bank dedupe (a bank is spared once, a row
// is isolated once).
func referenceActions(pipe *core.Pipeline, geo hbm.Geometry, events []mcelog.Event) []stream.Action {
	strat := &core.CordialStrategy{Pipeline: pipe, Geometry: geo}
	type bank struct {
		sess   core.Session
		spared bool
		rows   map[int]struct{}
	}
	banks := map[uint64]*bank{}
	var out []stream.Action
	for _, ev := range events {
		key := ev.Addr.BankKey()
		b, ok := banks[key]
		if !ok {
			b = &bank{sess: strat.NewSession(hbm.BankOf(ev.Addr)), rows: map[int]struct{}{}}
			banks[key] = b
		}
		d := b.sess.OnEvent(ev)
		var class faultsim.Class
		if cs, ok := b.sess.(core.ClassifiedSession); ok {
			class, _ = cs.Class()
		}
		out = appendDecision(out, hbm.BankOf(ev.Addr), ev, class, d.SpareBank, d.IsolateRows, &b.spared, b.rows)
	}
	return out
}

// appendDecision turns one decision into the actions the engine would
// emit for it, applying the per-bank dedupe.
func appendDecision(out []stream.Action, bank hbm.BankAddress, ev mcelog.Event, class faultsim.Class,
	spareBank bool, rows []int, spared *bool, isolated map[int]struct{}) []stream.Action {
	if spareBank && !*spared {
		*spared = true
		out = append(out, stream.Action{Kind: sparing.ActionBankSpare, Bank: bank, Class: class, Time: ev.Time})
	}
	var fresh []int
	for _, r := range rows {
		if _, done := isolated[r]; !done {
			isolated[r] = struct{}{}
			fresh = append(fresh, r)
		}
	}
	if len(fresh) > 0 {
		out = append(out, stream.Action{Kind: sparing.ActionRowSpare, Bank: bank, Rows: fresh, Class: class, Time: ev.Time})
	}
	return out
}

// actionString is an action's identity for multiset comparison.
func actionString(a stream.Action) string {
	return fmt.Sprintf("%d|%x|%d|%d|%v", a.Kind, a.Bank.Pack(), a.Time.UnixNano(), a.Class, a.Rows)
}

// actionMismatch is the size of the multiset difference between got and
// want: 0 exactly when the engine emitted the reference actions, in any
// order.
func actionMismatch(got, want []stream.Action) int {
	count := map[string]int{}
	for _, a := range want {
		count[actionString(a)]++
	}
	for _, a := range got {
		count[actionString(a)]--
	}
	n := 0
	for _, c := range count {
		if c < 0 {
			c = -c
		}
		n += c
	}
	return n
}

// actionsOutside counts the actions of got that the want multiset does
// not hold. A reopen replays the journal suffix after the snapshot and
// emits its actions again (at least once, older ones possibly evicted from
// the action buffer), so they must be reference actions but need not be
// all of them.
func actionsOutside(got, want []stream.Action) int {
	count := map[string]int{}
	for _, a := range want {
		count[actionString(a)]++
	}
	n := 0
	for _, a := range got {
		k := actionString(a)
		if count[k] == 0 {
			n++
			continue
		}
		count[k]--
	}
	return n
}

// sessionString is a session's identity for the restart gate: every
// field of its stats, with times as Unix nanoseconds, except StateBytes.
// That one is an estimate from slice capacities, which a restored state
// does not reproduce; StateRows pins the tracked state exactly.
func sessionString(s stream.SessionStats) string {
	first, last := s.FirstEvent.UnixNano(), s.LastEvent.UnixNano()
	return fmt.Sprintf("%x|%d|%d|%d|%t|%d|%t|%d|%d|%d|%d|%d|%t|%d|%t",
		s.Bank.Pack(), s.Events, s.UEREvents, s.DistinctUERRows, s.Classified, s.Class,
		s.BankSpared, s.RowsIsolated, s.Actions, first, last, s.StateRows,
		s.StateReleased, s.ModelVersion, s.Degraded)
}

// sessionMismatch counts sessions that differ between two snapshots of
// Engine.Sessions, as a multiset difference.
func sessionMismatch(before, after []stream.SessionStats) int {
	count := map[string]int{}
	for _, s := range before {
		count[sessionString(s)]++
	}
	for _, s := range after {
		count[sessionString(s)]--
	}
	n := 0
	for _, c := range count {
		if c < 0 {
			c = -c
		}
		n += c
	}
	return n
}

// actionICR is the isolation coverage rate of emitted actions over the
// fleet's faulty banks: the share of UER rows that a bank spare or a row
// spare covered strictly before the row's first UER. It credits both
// mechanisms, as the Table IV ICR does, with no spare budget.
func actionICR(actions []stream.Action, faults []*faultsim.BankFault) float64 {
	type cover struct {
		bankSpared bool
		bankAt     int64
		rows       map[int]int64
	}
	byBank := map[uint64]*cover{}
	for _, a := range actions {
		key := a.Bank.BankKey()
		c, ok := byBank[key]
		if !ok {
			c = &cover{rows: map[int]int64{}}
			byBank[key] = c
		}
		t := a.Time.UnixNano()
		if a.Kind == sparing.ActionBankSpare && (!c.bankSpared || t < c.bankAt) {
			c.bankSpared, c.bankAt = true, t
		}
		for _, r := range a.Rows {
			if old, ok := c.rows[r]; !ok || t < old {
				c.rows[r] = t
			}
		}
	}
	covered, total := 0, 0
	for _, bf := range faults {
		c := byBank[bf.Bank.BankKey()]
		for i, row := range bf.UERRows {
			total++
			if c == nil {
				continue
			}
			first := bf.UERTimes[i].UnixNano()
			if t, ok := c.rows[row]; ok && t < first {
				covered++
			} else if c.bankSpared && c.bankAt < first {
				covered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
