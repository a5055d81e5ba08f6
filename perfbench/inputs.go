package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
)

// scale sizes every input. fullScale is the benchmark; tests use a tiny
// one so each workload runs in seconds.
type scale struct {
	trees                 int // forest size of the served model
	trainUER, trainBenign int // labelled training fleet (DefaultSpec: 300 / 2200)
	fleetUER, fleetBenign int // fleet-mixed live fleet
	noiseUER, noiseBenign int // ce-noise-durable live fleet
	pacedRate             float64
	tick                  time.Duration
}

func fullScale() scale {
	return scale{
		trees:    80,
		trainUER: 300, trainBenign: 2200,
		fleetUER: 2000, fleetBenign: 15000,
		noiseUER: 1000, noiseBenign: 50000,
		// About 30% of fleet-mixed's saturation rate on a 2-core box, so
		// that the engine keeps up even while a shared host slows it down.
		// Fixed rather than derived from the measured capacity so that two
		// versions of the program are offered the same load.
		pacedRate: 30000,
		tick:      time.Millisecond,
	}
}

// liveFleet is the size of a workload's live fleet.
func liveFleet(sc scale, workload string) (uer, benign int) {
	if workload == wNoise {
		return sc.noiseUER, sc.noiseBenign
	}
	return sc.fleetUER, sc.fleetBenign
}

// liveSeed derives the live fleet's seed from the workload seed with the
// splitmix64 finaliser, so that it never coincides with the served
// model's training seed.
func liveSeed(seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + 2
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// geometry is the topology every workload runs under: the default
// profile's, which is also what the engine and cordial-serve default to.
func geometry() hbm.Geometry { return hbm.ActiveProfile().Geometry }

// generate synthesises a fleet with the default calibration at the given
// size.
func generate(seed uint64, uer, benign int) (*trace.Fleet, error) {
	spec := trace.DefaultSpec(geometry())
	spec.Seed = seed
	spec.UERBanks = uer
	spec.BenignBanks = benign
	f, err := trace.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating fleet: %w", err)
	}
	return f, nil
}

// pipelineConfig is the configuration cordial-train ships by default.
func pipelineConfig(sc scale) core.Config {
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params.Trees = sc.trees
	return cfg
}

// servedModelSeed is the training-fleet seed of the served model:
// cordial-gen's default, so the ingest workloads serve the model that
// cordial-gen and cordial-train produce with their defaults. It is fixed
// rather than derived from --seed because a model trained on a different
// fleet classifies a different share of banks as aggregation and so
// changes how much inference the traffic costs; with it fixed, --seed
// varies only the live traffic.
const servedModelSeed = 1

// trainModel fits the default pipeline on the default training fleet and
// returns the saved model bytes: the only form in which the system under
// test receives the model.
func trainModel(sc scale) ([]byte, error) {
	f, err := generate(servedModelSeed, sc.trainUER, sc.trainBenign)
	if err != nil {
		return nil, err
	}
	pipe, err := core.New(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	if err := pipe.Fit(f.Faults); err != nil {
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	var buf bytes.Buffer
	if err := pipe.SaveModels(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadPipeline decodes model bytes the way cordial-serve loads -models.
func loadPipeline(sc scale, model []byte) (*core.Pipeline, error) {
	pipe, err := core.New(pipelineConfig(sc))
	if err != nil {
		return nil, err
	}
	if err := pipe.LoadModels(bytes.NewReader(model)); err != nil {
		return nil, err
	}
	return pipe, nil
}

// encodeFrames encodes events as a CBF2 stream with perFrame records per
// frame.
func encodeFrames(events []mcelog.Event, perFrame int) ([]byte, error) {
	var buf bytes.Buffer
	enc := mcelog.NewFrameEncoder(&buf, perFrame)
	for _, ev := range events {
		if err := enc.Add(ev); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// wireMagic is the CBF2 stream prefix: a single frame sliced out of a
// stream becomes a stream of its own behind it.
const wireMagic = "CBF2"

// frameSpans splits a CBF2 stream into its frames (header + payload),
// for posting one frame per request.
func frameSpans(stream []byte) [][]byte {
	var out [][]byte
	for off := len(wireMagic); off+8 <= len(stream); {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		out = append(out, stream[off:off+8+n])
		off += 8 + n
	}
	return out
}

// actionKey ties an action to the event that triggered it: the engine
// stamps Action.Time with that event's timestamp.
type actionKey struct {
	bank uint64
	t    int64
}

// pacedPlan is the open-loop schedule of fleet-mixed: event i is due at
// i/rate, and each tick's due events go out as one frame at the tick.
type pacedPlan struct {
	stream   []byte
	due      []time.Duration // per frame, from the phase start
	uerFrame map[actionKey]int
}

func planPaced(events []mcelog.Event, rate float64, tick time.Duration) (*pacedPlan, error) {
	p := &pacedPlan{uerFrame: map[actionKey]int{}}
	var buf bytes.Buffer
	enc := mcelog.NewFrameEncoder(&buf, mcelog.MaxWireFrameBytes/mcelog.WireRecordSize)
	cur := -1
	for i, ev := range events {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		k := int(math.Ceil(float64(due) / float64(tick)))
		if k != cur {
			if err := enc.Flush(); err != nil {
				return nil, err
			}
			p.due = append(p.due, time.Duration(k)*tick)
			cur = k
		}
		if err := enc.Add(ev); err != nil {
			return nil, err
		}
		if ev.Class == ecc.ClassUER {
			key := actionKey{ev.Addr.BankKey(), ev.Time.UnixNano()}
			if _, ok := p.uerFrame[key]; !ok {
				p.uerFrame[key] = len(p.due) - 1
			}
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	p.stream = buf.Bytes()
	if n := len(frameSpans(p.stream)); n != len(p.due) {
		return nil, fmt.Errorf("paced plan has %d frames but %d due times", n, len(p.due))
	}
	return p, nil
}

// digest is FNV-1a over the byte inputs the system under test receives,
// so two runs can show that their inputs were identical.
func digest(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// distinctBanks counts the banks of an event slice.
func distinctBanks(events []mcelog.Event) int {
	seen := map[uint64]struct{}{}
	for _, ev := range events {
		seen[ev.Addr.BankKey()] = struct{}{}
	}
	return len(seen)
}

// runMeta describes the machine and the fixed settings of a run.
func runMeta(sc scale) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"shards":     runtime.GOMAXPROCS(0),
		"trees":      sc.trees,
		"train_fleet": map[string]int{
			"uer_banks": sc.trainUER, "benign_banks": sc.trainBenign,
		},
	}
}
