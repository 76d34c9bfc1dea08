package serve

import (
	"fmt"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/can"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// parser is the per-stream ingest front end: it turns raw feed lines
// into complete periods. Text-format lines are parsed by the stream's
// trace.LineReader; lines starting with '(' are candump frames, which
// a can.StreamConverter turns into the frame's rise and fall events.
// Either way the events go to the same reader's Event, so one stream
// may mix task events from an instrumented node with bus frames from a
// logger.
//
// With a positive periodUS the parser also cuts periods on a fixed
// grid anchored at the first opening event — the serving equivalent of
// slicing a capture by the system's known period. Only opening events
// (a task start or a message rise, including the first half of an exec
// or msg line) cut, so a pair that spans a grid line stays in the
// period it opened in, whichever form it was sent in.
//
// parser is owned by the ingest path under the stream's feed mutex
// and supports clone-and-commit: a request parses into a clone and
// the clone replaces the original only once the whole batch is
// accepted, which is what makes the 429 shed path atomic.
type parser struct {
	lr   *trace.LineReader
	conv *can.StreamConverter // nil unless the stream set a bit rate

	periodUS int64
	haveBase bool  // whether the grid is anchored at an opening event
	boundary int64 // next grid cut, valid when haveBase
}

func newParser(tasks []string, bitRate, periodUS int64) (*parser, error) {
	lr, err := trace.NewLineReader(tasks)
	if err != nil {
		return nil, err
	}
	p := &parser{lr: lr, periodUS: periodUS}
	if bitRate > 0 {
		if p.conv, err = can.NewStreamConverter(bitRate); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *parser) clone() *parser {
	cp := *p
	cp.lr = p.lr.Clone()
	if p.conv != nil {
		cp.conv = p.conv.Clone()
	}
	return &cp
}

func (p *parser) partial() bool { return p.lr.Partial() }

// feed consumes one raw feed line and returns the periods it
// completed (usually zero or one; a line crossing several empty grid
// slots still cuts at most one, since empty periods are skipped).
func (p *parser) feed(line string) ([]*trace.Period, error) {
	var evs []trace.Event
	var err error
	if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "(") {
		if p.conv == nil {
			return nil, fmt.Errorf("serve: candump line on a stream created without bit_rate")
		}
		evs, err = p.conv.Line(trimmed)
	} else {
		evs, err = p.lr.Parse(line)
	}
	if err != nil {
		return nil, err
	}
	var out []*trace.Period
	for _, ev := range evs {
		if p.periodUS > 0 && (ev.Kind == trace.TaskStart || ev.Kind == trace.MsgRise) {
			if out, err = p.gridCut(ev.Time, out); err != nil {
				return nil, err
			}
		}
		if out, err = p.event(ev, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// event applies one event to the reader, appending the period it
// closed, if any.
func (p *parser) event(ev trace.Event, out []*trace.Period) ([]*trace.Period, error) {
	period, err := p.lr.Event(ev)
	if period != nil {
		out = append(out, period)
	}
	return out, err
}

// gridCut closes the open period when t has reached the next grid
// boundary, and advances the boundary past t.
func (p *parser) gridCut(t int64, out []*trace.Period) ([]*trace.Period, error) {
	if !p.haveBase {
		p.haveBase, p.boundary = true, t+p.periodUS
		return out, nil
	}
	if t < p.boundary {
		return out, nil
	}
	// Step to the first boundary past t at once: t comes from the
	// client, and a loop over the skipped grid slots could spin for
	// ever on one line.
	p.boundary = t + p.periodUS - (t-p.boundary)%p.periodUS
	return p.event(trace.Event{Kind: trace.PeriodMark}, out)
}
