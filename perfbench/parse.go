package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/can"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// feedParser cuts a stream's feed into periods offline, through the
// same public parsers the server uses (trace.LineReader for text
// directives, can.StreamConverter for candump frames) and with the
// server's period_us grid rule: a timed event at or past the next
// grid boundary closes the open period. It gives the reference
// periods for the output checks and the trace-layer replay.
type feedParser struct {
	lr       *trace.LineReader
	conv     *can.StreamConverter
	periodUS int64
	haveBase bool
	boundary int64

	// lineNS/lines accumulate LineReader.Line time when timed.
	timed  bool
	lineNS int64
	lines  int64
}

func newFeedParser(st *streamInput) (*feedParser, error) {
	lr, err := trace.NewLineReader(st.create.Tasks)
	if err != nil {
		return nil, err
	}
	p := &feedParser{lr: lr, periodUS: st.create.PeriodUS}
	if st.create.BitRate > 0 {
		if p.conv, err = can.NewStreamConverter(st.create.BitRate); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readerLine feeds one directive to the LineReader, timing it.
func (p *feedParser) readerLine(s string) (*trace.Period, error) {
	if !p.timed {
		return p.lr.Line(s)
	}
	t0 := time.Now()
	per, err := p.lr.Line(s)
	p.lineNS += int64(time.Since(t0))
	p.lines++
	return per, err
}

// feed consumes one feed line and returns the periods it completed.
func (p *feedParser) feed(line string) ([]*trace.Period, error) {
	trimmed := strings.TrimSpace(line)
	var out []*trace.Period
	if strings.HasPrefix(trimmed, "(") {
		if p.conv == nil {
			return nil, fmt.Errorf("candump line on a stream without bit_rate")
		}
		events, err := p.conv.Line(trimmed)
		if err != nil {
			return nil, err
		}
		for _, ev := range events {
			var directive string
			switch ev.Kind {
			case trace.MsgRise:
				if out, err = p.gridCut(ev.Time, out); err != nil {
					return nil, err
				}
				directive = fmt.Sprintf("rise %s %d", ev.Name, ev.Time)
			case trace.MsgFall:
				directive = fmt.Sprintf("fall %s %d", ev.Name, ev.Time)
			}
			per, err := p.readerLine(directive)
			if err != nil {
				return nil, err
			}
			if per != nil {
				out = append(out, per)
			}
		}
		return out, nil
	}
	if f := strings.Fields(trimmed); len(f) == 4 && (f[0] == "exec" || f[0] == "msg") {
		var t int64
		if _, err := fmt.Sscanf(f[2], "%d", &t); err == nil {
			var err error
			if out, err = p.gridCut(t, out); err != nil {
				return nil, err
			}
		}
	}
	per, err := p.readerLine(line)
	if err != nil {
		return nil, err
	}
	if per != nil {
		out = append(out, per)
	}
	return out, nil
}

// gridCut closes the open period when t reaches the next boundary of
// the period_us grid anchored at the first timed event.
func (p *feedParser) gridCut(t int64, out []*trace.Period) ([]*trace.Period, error) {
	if p.periodUS <= 0 {
		return out, nil
	}
	if !p.haveBase {
		p.haveBase, p.boundary = true, t+p.periodUS
		return out, nil
	}
	if t < p.boundary {
		return out, nil
	}
	per, err := p.readerLine("period")
	if err != nil {
		return nil, err
	}
	if per != nil {
		out = append(out, per)
	}
	for p.boundary <= t {
		p.boundary += p.periodUS
	}
	return out, nil
}

// feedBody consumes one request body.
func (p *feedParser) feedBody(body string) ([]*trace.Period, error) {
	var out []*trace.Period
	for _, line := range strings.Split(body, "\n") {
		ps, err := p.feed(line)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// cutPeriods parses request bodies into the complete periods they
// carry; a trailing open period is not returned, as on the server.
func cutPeriods(st *streamInput, bodies []string) ([]*trace.Period, error) {
	p, err := newFeedParser(st)
	if err != nil {
		return nil, err
	}
	var out []*trace.Period
	for _, b := range bodies {
		ps, err := p.feedBody(b)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}
