package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// Write serializes the trace in the compact text format.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "tasks %s\n", strings.Join(tr.Tasks, " "))
	for _, p := range tr.Periods {
		fmt.Fprintln(bw, "period")
		// Emit executions in start order for readability.
		for _, t := range p.execsByStart() {
			iv := p.Execs[t]
			fmt.Fprintf(bw, "exec %s %d %d\n", t, iv.Start, iv.End)
		}
		for _, m := range p.Msgs {
			fmt.Fprintf(bw, "msg %s %d %d\n", m.ID, m.Rise, m.Fall)
		}
	}
	return bw.Flush()
}

func (p *Period) execsByStart() []string {
	names := p.ExecutedTasks()
	// Stable sort by start time; ExecutedTasks already sorted by name.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && p.Execs[names[j]].Start < p.Execs[names[j-1]].Start; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// String renders the trace in the text format.
func (tr *Trace) String() string {
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		return fmt.Sprintf("trace: %v", err)
	}
	return sb.String()
}

// Read parses a trace in the text format (see LineReader). The first
// line that is not blank or a comment declares the task set, and only
// that line may.
func Read(r io.Reader) (*Trace, error) { return ReadObserved(r, nil) }

// ReadObserved parses like Read and reports parsing observability to
// o (stage "trace"): events_read (period marks included) and
// periods_segmented on success, malformed_lines (with the error as
// label) on a parse failure. A nil observer makes it identical to Read.
func ReadObserved(r io.Reader, o obs.Observer) (tr *Trace, err error) {
	sp := obs.StartSpan(o, obs.PhaseTraceParse)
	defer sp.End()
	if o != nil {
		defer func() {
			if err != nil {
				o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "malformed_lines", Value: 1, Label: err.Error()})
				return
			}
			o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "periods_segmented", Value: int64(len(tr.Periods))})
		}()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var lr *LineReader
	var evs []Event
	events := 0
	for n := 1; sc.Scan(); n++ {
		var tasks []string
		if evs, tasks, err = parseLine(sc.Text(), evs[:0]); err != nil {
			return nil, atLine(n, err)
		}
		switch {
		case tasks != nil && lr != nil:
			return nil, atLine(n, errors.New("trace: duplicate tasks declaration"))
		case tasks != nil:
			if lr, err = NewLineReader(tasks); err != nil {
				return nil, atLine(n, err)
			}
			tr = New(tasks)
		case len(evs) > 0 && lr == nil:
			return nil, atLine(n, errors.New("trace: event before tasks declaration"))
		}
		for _, ev := range evs {
			if err = tr.add(lr.Event(ev)); err != nil {
				return nil, atLine(n, err)
			}
		}
		events += len(evs)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if lr == nil {
		return nil, errors.New("trace: missing tasks declaration")
	}
	if err := tr.add(lr.Flush()); err != nil {
		return nil, err
	}
	if o != nil {
		o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "events_read", Value: int64(events)})
	}
	return tr, nil
}

// add appends a period a LineReader emitted, if any.
func (tr *Trace) add(p *Period, err error) error {
	if p != nil {
		tr.Periods = append(tr.Periods, p)
	}
	return err
}

// ReadString parses a trace from a string in the text format.
func ReadString(s string) (*Trace, error) {
	return Read(strings.NewReader(s))
}

// FromEventsObserved assembles a trace like FromEvents and reports
// stage-"trace" observability to o: events_read and
// periods_segmented on success, malformed_lines (with the error as
// label) on failure. A nil observer makes it identical to FromEvents.
func FromEventsObserved(tasks []string, events []Event, o obs.Observer) (*Trace, error) {
	sp := obs.StartSpan(o, obs.PhaseTraceParse)
	tr, err := FromEvents(tasks, events)
	sp.End()
	if o != nil {
		if err != nil {
			o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "malformed_lines", Value: 1, Label: err.Error()})
		} else {
			o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "events_read", Value: int64(len(events))})
			o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "periods_segmented", Value: int64(len(tr.Periods))})
		}
	}
	return tr, err
}
