package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
	"cordial/internal/wal"
)

// testStrategy is a minimal durable strategy: it tracks distinct UER rows
// per bank and isolates each row once a budget is reached. Deterministic
// EncodeState makes handoff bit-identity assertions possible.
type testStrategy struct{ budget int }

func (*testStrategy) Name() string { return "cluster-test" }

func (s *testStrategy) NewSession(bank hbm.BankAddress) core.Session {
	return &testSession{strategy: s, rows: make(map[int]bool)}
}

func (s *testStrategy) RestoreSession(bank hbm.BankAddress, data []byte) (core.Session, error) {
	var img struct {
		Rows       []int
		Classified bool
	}
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, err
	}
	sess := &testSession{strategy: s, rows: make(map[int]bool), classified: img.Classified}
	for _, r := range img.Rows {
		sess.rows[r] = true
	}
	return sess, nil
}

type testSession struct {
	strategy   *testStrategy
	rows       map[int]bool
	classified bool
}

func (s *testSession) OnEvent(e mcelog.Event) core.Decision {
	if e.Class != ecc.ClassUER {
		return core.Decision{}
	}
	s.rows[e.Addr.Row] = true
	if len(s.rows) >= s.strategy.budget {
		s.classified = true
		return core.Decision{IsolateRows: []int{e.Addr.Row}}
	}
	return core.Decision{}
}

func (s *testSession) EncodeState() ([]byte, error) {
	rows := make([]int, 0, len(s.rows))
	for r := range s.rows {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return json.Marshal(struct {
		Rows       []int
		Classified bool
	}{rows, s.classified})
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// testNode is one in-process serve node: engine + HTTP API + agent,
// wired exactly like cmd/cordial-serve in cluster mode.
type testNode struct {
	id     string
	dir    string
	engine *stream.Engine
	api    *stream.Server
	agent  *Agent
	http   *httptest.Server
	stop   context.CancelFunc
}

func startNode(t *testing.T, cpURL, id string) *testNode {
	t.Helper()
	dir := t.TempDir()
	engine, err := stream.New(stream.Config{
		Strategy:   &testStrategy{budget: 3},
		Shards:     2,
		Durability: stream.DurabilityConfig{Dir: dir, Sync: wal.SyncNever},
		Logger:     quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	api := stream.NewServer(engine, stream.ServerConfig{})
	mux := http.NewServeMux()
	hs := httptest.NewServer(mux)
	agent := NewAgent(AgentConfig{
		ControlPlane: cpURL,
		Self:         Member{ID: id, Addr: hs.Listener.Addr().String(), WALDir: dir},
		Heartbeat:    50 * time.Millisecond,
		DrainTimeout: 5 * time.Second,
		Logger:       quiet,
	}, engine, api)
	mux.Handle("/cluster/", agent.Handler())
	mux.Handle("/", api)
	ctx, cancel := context.WithCancel(context.Background())
	go agent.Run(ctx)
	n := &testNode{id: id, dir: dir, engine: engine, api: api, agent: agent, http: hs, stop: cancel}
	t.Cleanup(func() { cancel(); hs.Close(); engine.Close() })
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func clusterBank(i int) hbm.BankAddress {
	return hbm.BankAddress{Node: i % 8, NPU: (i / 8) % 8, BankGroup: (i / 64) % 4, Bank: i % 4}
}

func clusterUER(bank hbm.BankAddress, row, sec int) mcelog.Event {
	return mcelog.Event{
		Time:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second),
		Addr:  hbm.CellInBank(bank, row, 0),
		Class: ecc.ClassUER,
	}
}

// postEvents posts a JSONL batch and returns status + decoded result.
func postEvents(t *testing.T, baseURL string, events []mcelog.Event) (int, ingestResult) {
	t.Helper()
	var buf bytes.Buffer
	if err := mcelog.FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/events", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, res
}

// startCP serves a control plane without its background sweeper (tests
// drive Sweep explicitly where needed).
func startCP(t *testing.T, cfg CPConfig) (*ControlPlane, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	cp := NewControlPlane(cfg)
	hs := httptest.NewServer(cp.Handler())
	t.Cleanup(hs.Close)
	return cp, hs
}

// TestClusterJoinHandoffLeave walks the live-rebalance protocol: a
// second node joins a loaded single-node cluster and receives exactly
// the banks the ring moves (the source drops them); ingest is fenced by
// ownership on both sides; a graceful leave returns everything.
func TestClusterJoinHandoffLeave(t *testing.T) {
	cp, cpSrv := startCP(t, CPConfig{})
	n1 := startNode(t, cpSrv.URL, "n1")
	waitFor(t, "n1 registration", func() bool { return n1.agent.Epoch() == 1 })

	// Load 8 banks, 4 UER rows each, through the single node.
	const banks, rowsPer = 8, 4
	var events []mcelog.Event
	for b := 0; b < banks; b++ {
		for r := 1; r <= rowsPer; r++ {
			events = append(events, clusterUER(clusterBank(b), r, b*100+r))
		}
	}
	status, res := postEvents(t, n1.http.URL, events)
	if status != http.StatusOK || res.Accepted != len(events) {
		t.Fatalf("seed ingest: status %d result %+v", status, res)
	}
	if err := n1.engine.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	n2 := startNode(t, cpSrv.URL, "n2")
	// The control plane publishes the new descriptor only after the
	// agents adopt it and the sources drop, so wait for that too.
	waitFor(t, "join rebalance", func() bool {
		return n2.agent.Epoch() == 2 && n1.agent.Epoch() == 2 && cp.Descriptor().Epoch == 2
	})

	// Placement: every bank's session lives exactly on its ring owner,
	// with its full pre-join history (stats moved with the state).
	ring, err := BuildRing(cp.Descriptor())
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := ring.OwnerID(bank.BankKey())
		var ownerNode, otherNode *testNode = n1, n2
		if owner == "n2" {
			ownerNode, otherNode = n2, n1
			moved++
		}
		st, ok := ownerNode.engine.Session(bank)
		if !ok || st.Events != rowsPer {
			t.Fatalf("bank %v: owner %s session ok=%v stats=%+v, want %d events", bank, owner, ok, st, rowsPer)
		}
		if _, ok := otherNode.engine.Session(bank); ok {
			t.Errorf("bank %v: non-owner still holds a session after drop", bank)
		}
	}
	if moved == 0 {
		t.Fatal("ring moved no test banks to the joiner; widen the bank set")
	}

	// Ownership fences ingest: a bank owned by n2 is refused by n1 with
	// the not-owned marker and the current epoch.
	var n2Bank hbm.BankAddress
	for b := 0; b < banks; b++ {
		if ring.OwnerID(clusterBank(b).BankKey()) == "n2" {
			n2Bank = clusterBank(b)
			break
		}
	}
	status, res = postEvents(t, n1.http.URL, []mcelog.Event{clusterUER(n2Bank, 9, 999)})
	if status != http.StatusServiceUnavailable || res.NotOwned != 1 || res.Epoch != 2 {
		t.Fatalf("fenced ingest: status %d result %+v, want 503 notOwned=1 epoch=2", status, res)
	}

	// Graceful leave: n1 gets everything back, history intact.
	if err := n2.agent.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leave rebalance", func() bool { return n1.agent.Epoch() == 3 && cp.Descriptor().Epoch == 3 })
	for b := 0; b < banks; b++ {
		st, ok := n1.engine.Session(clusterBank(b))
		if !ok || st.Events != rowsPer {
			t.Fatalf("bank %v after leave: ok=%v stats=%+v, want %d events", clusterBank(b), ok, st, rowsPer)
		}
	}
	if got := cp.Descriptor(); len(got.Members) != 1 || got.Epoch != 3 {
		t.Fatalf("descriptor after leave: %+v", got)
	}
}

// TestRouterRoutesAndRetriesStaleRing: the router splits batches by
// owner; when its ring goes stale (a node joined and banks moved), the
// fenced nodes' 503s drive a refresh-and-resend of exactly the
// unconsumed suffix, and no line is lost or double-applied.
func TestRouterRoutesAndRetriesStaleRing(t *testing.T) {
	cp, cpSrv := startCP(t, CPConfig{})
	n1 := startNode(t, cpSrv.URL, "n1")
	n2 := startNode(t, cpSrv.URL, "n2")
	waitFor(t, "two nodes", func() bool {
		return n1.agent.Epoch() >= 2 && n2.agent.Epoch() >= 2
	})

	rt := NewRouter(RouterConfig{
		ControlPlane: cpSrv.URL,
		Backoff:      10 * time.Millisecond,
		Logger:       quiet,
	})
	if err := rt.refreshRing(); err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	const banks, rowsPer = 8, 2
	var batch []mcelog.Event
	for b := 0; b < banks; b++ {
		for r := 1; r <= rowsPer; r++ {
			batch = append(batch, clusterUER(clusterBank(b), r, b*100+r))
		}
	}
	status, res := postEvents(t, rtSrv.URL, batch)
	if status != http.StatusOK || res.Accepted != len(batch) {
		t.Fatalf("routed ingest: status %d result %+v", status, res)
	}

	// Make the router's ring stale: a third node joins and takes banks.
	n3 := startNode(t, cpSrv.URL, "n3")
	waitFor(t, "third node", func() bool { return n3.agent.Epoch() == 3 })

	var second []mcelog.Event
	for b := 0; b < banks; b++ {
		for r := rowsPer + 1; r <= 2*rowsPer; r++ {
			second = append(second, clusterUER(clusterBank(b), r, b*100+r))
		}
	}
	status, res = postEvents(t, rtSrv.URL, second)
	if status != http.StatusOK || res.Accepted != len(second) {
		t.Fatalf("stale-ring ingest: status %d result %+v", status, res)
	}
	if rt.failures.Value() != 0 {
		t.Fatalf("router abandoned %d batches", rt.failures.Value())
	}

	// Every bank's full history sits exactly on its current owner.
	ring, err := BuildRing(cp.Descriptor())
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*testNode{"n1": n1, "n2": n2, "n3": n3}
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		waitFor(t, fmt.Sprintf("bank %v drained on its owner", bank), func() bool {
			st, ok := nodes[ring.OwnerID(bank.BankKey())].engine.Session(bank)
			return ok && st.Events == 2*rowsPer
		})
		for id, n := range nodes {
			if id == ring.OwnerID(bank.BankKey()) {
				continue
			}
			if _, ok := n.engine.Session(bank); ok {
				t.Errorf("bank %v: stale session on non-owner %s", bank, id)
			}
		}
	}
}

// TestTakeoverDeadNode: a node that stops heartbeating is declared dead;
// the control plane rebuilds its sessions from its journal (no snapshot
// ever written) and the survivor adopts them with full history.
func TestTakeoverDeadNode(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)}
	cp, cpSrv := startCP(t, CPConfig{HeartbeatTTL: time.Hour, Clock: clock.Now})
	n1 := startNode(t, cpSrv.URL, "n1")
	n2 := startNode(t, cpSrv.URL, "n2")
	// Agents adopt an epoch before the control plane publishes it, and the
	// ring below is built from the published descriptor: wait for both.
	waitFor(t, "two nodes", func() bool {
		return n1.agent.Epoch() >= 2 && n2.agent.Epoch() >= 2 && cp.Descriptor().Epoch >= 2
	})

	// Ingest each bank directly at its owner.
	ring, err := BuildRing(cp.Descriptor())
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*testNode{"n1": n1, "n2": n2}
	const banks, rowsPer = 8, 4
	deadBanks := 0
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := ring.OwnerID(bank.BankKey())
		if owner == "n2" {
			deadBanks++
		}
		var evs []mcelog.Event
		for r := 1; r <= rowsPer; r++ {
			evs = append(evs, clusterUER(bank, r, b*100+r))
		}
		status, res := postEvents(t, nodes[owner].http.URL, evs)
		if status != http.StatusOK || res.Accepted != rowsPer {
			t.Fatalf("ingest at %s: status %d result %+v", owner, status, res)
		}
	}
	if deadBanks == 0 {
		t.Fatal("no banks on the node being killed; widen the bank set")
	}
	if err := n2.engine.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill n2: no more heartbeats, no listener. Its journal stays on disk.
	n2.stop()
	n2.http.Close()

	// Expire n2's lease but keep n1's fresh: advance the clock, then wait
	// for one n1 heartbeat stamped with the advanced time.
	expired := clock.Advance(2 * time.Hour)
	waitFor(t, "n1 heartbeat after clock jump", func() bool {
		cp.mu.Lock()
		defer cp.mu.Unlock()
		m := cp.members["n1"]
		return m != nil && !m.lastSeen.Before(expired)
	})
	cp.Sweep()

	if got := cp.Descriptor(); len(got.Members) != 1 || got.Members[0].ID != "n1" {
		t.Fatalf("descriptor after takeover: %+v", got)
	}
	// The survivor holds every bank with full history, rebuilt for the
	// dead node's banks from its journal alone.
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		waitFor(t, fmt.Sprintf("bank %v adopted", bank), func() bool {
			st, ok := n1.engine.Session(bank)
			return ok && st.Events == rowsPer
		})
	}
	waitFor(t, "n1 adopts the post-takeover ring", func() bool { return n1.agent.Epoch() == 3 })

	// The adopted state was snapshotted before the takeover completed:
	// a restart of the survivor over its directory keeps every session.
	if takeovers := cp.takeovers.Value(); takeovers != 1 {
		t.Fatalf("takeovers counter = %d, want 1", takeovers)
	}
}

// fakeClock is an injectable time source for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// postEventsBin posts a binary-framed batch and returns status + result.
func postEventsBin(t *testing.T, baseURL string, events []mcelog.Event) (int, ingestResult) {
	t.Helper()
	var buf bytes.Buffer
	enc := mcelog.NewFrameEncoder(&buf, 0)
	for _, ev := range events {
		if err := enc.Add(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/events.bin", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, res
}

// TestRouterCodecMatrix: every client-codec × upstream-codec combination
// delivers the same batch — binary framing is the default upstream, JSONL
// stays as a compatibility codec, and either may arrive from clients.
func TestRouterCodecMatrix(t *testing.T) {
	_, cpSrv := startCP(t, CPConfig{})
	n1 := startNode(t, cpSrv.URL, "n1")
	n2 := startNode(t, cpSrv.URL, "n2")
	waitFor(t, "two nodes", func() bool {
		return n1.agent.Epoch() >= 2 && n2.agent.Epoch() >= 2
	})

	for _, tc := range []struct {
		name     string
		upstream string
		binaryIn bool
	}{
		{"jsonl-in binary-up", CodecBinary, false},
		{"binary-in binary-up", CodecBinary, true},
		{"jsonl-in jsonl-up", CodecJSONL, false},
		{"binary-in jsonl-up", CodecJSONL, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRouter(RouterConfig{
				ControlPlane:  cpSrv.URL,
				UpstreamCodec: tc.upstream,
				Backoff:       10 * time.Millisecond,
				Logger:        quiet,
			})
			if err := rt.refreshRing(); err != nil {
				t.Fatal(err)
			}
			rtSrv := httptest.NewServer(rt)
			defer rtSrv.Close()

			var batch []mcelog.Event
			row := 1
			for b := 0; b < 8; b++ {
				batch = append(batch, clusterUER(clusterBank(b), row, b))
			}
			post := postEvents
			if tc.binaryIn {
				post = postEventsBin
			}
			status, res := post(t, rtSrv.URL, batch)
			if status != http.StatusOK || res.Accepted != len(batch) {
				t.Fatalf("%s: status %d result %+v", tc.name, status, res)
			}
		})
	}
}
