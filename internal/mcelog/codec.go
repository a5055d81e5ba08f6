package mcelog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// jsonEvent is the interchange shape for one event in the JSONL codec.
// The bits field is the intra-word error pattern; it is omitted when zero
// so logs from producers without syndrome detail keep their shape.
type jsonEvent struct {
	Time  time.Time `json:"time"`
	Addr  string    `json:"addr"`
	Class string    `json:"class"`
	Bits  uint16    `json:"bits,omitempty"`
}

// WriteJSONL writes the log as JSON Lines: one event object per line.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range l.events {
		je := jsonEvent{Time: e.Time.UTC(), Addr: e.Addr.String(), Class: e.Class.String(), Bits: uint16(e.Bits)}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("mcelog: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// MarshalJSONEvent renders one event in the per-line shape WriteJSONL
// emits (no trailing newline). It is ParseJSONEvent's inverse — used by
// forwarders that received an event in another codec and must re-encode
// it for a JSONL-only peer.
func MarshalJSONEvent(ev Event) ([]byte, error) {
	return json.Marshal(jsonEvent{Time: ev.Time.UTC(), Addr: ev.Addr.String(), Class: ev.Class.String(), Bits: uint16(ev.Bits)})
}

// ParseJSONEvent parses one JSONL-encoded event (the per-line shape
// WriteJSONL emits). Unlike ReadJSONL it is line-granular, so tolerant
// ingestors can reject a malformed line and keep the rest of the batch.
func ParseJSONEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("mcelog: decoding event: %w", err)
	}
	return je.event()
}

// event converts the interchange shape to an Event, rejecting unparseable
// addresses and classes and implausible timestamps. Both JSONL readers
// (line-granular HTTP ingest and whole-file ReadJSONL) go through it, so a
// line is accepted or rejected the same way wherever it is read.
func (je jsonEvent) event() (Event, error) {
	addr, err := hbm.ParseAddress(je.Addr)
	if err != nil {
		return Event{}, fmt.Errorf("mcelog: %w", err)
	}
	class, err := ecc.ParseClass(je.Class)
	if err != nil {
		return Event{}, fmt.Errorf("mcelog: %w", err)
	}
	if err := ValidateTime(je.Time); err != nil {
		return Event{}, err
	}
	return Event{Time: je.Time, Addr: addr, Class: class, Bits: ErrBits(je.Bits)}, nil
}

// ReadJSONL parses a JSON Lines stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	log := &Log{}
	for i := 0; ; i++ {
		var je jsonEvent
		if err := dec.Decode(&je); err != nil {
			if errors.Is(err, io.EOF) {
				return log, nil
			}
			return nil, fmt.Errorf("mcelog: decoding line %d: %w", i, err)
		}
		ev, err := je.event()
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i, err)
		}
		log.Append(ev)
	}
}

// ReadLog reads an event log in either on-disk format, told apart by its
// first bytes: a "CBF2" frame stream (the POST /v1/events.bin body, and
// what cordial-gen writes by default) or, for anything else, JSON Lines.
// Every event must pass Event.Validate(g), the check HTTP ingest applies,
// so a file is admitted exactly as the daemon would admit its contents.
func ReadLog(r io.Reader, g hbm.Geometry) (*Log, error) {
	br := bufio.NewReader(r)
	log := &Log{}
	if magic, _ := br.Peek(len(wireMagic)); string(magic) == wireMagic {
		dec := NewFrameDecoder(br)
		for frame := 0; ; frame++ {
			fr, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", frame, err)
			}
			for i := 0; i < fr.Len(); i++ {
				log.Append(fr.Event(i))
			}
		}
	} else {
		var err error
		if log, err = ReadJSONL(br); err != nil {
			return nil, err
		}
	}
	for i, ev := range log.events {
		if err := ev.Validate(g); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return log, nil
}
