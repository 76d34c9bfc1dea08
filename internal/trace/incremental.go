package trace

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// LineReader is the trace segmenter. It pairs each task start with the
// task's next end and each message rise with the next fall of the same
// label, and cuts the pairs into periods, emitting each period as soon
// as the event that closes it arrives. Read, FromEvents and the
// server's ingest path (internal/serve) all run on it, so a live feed
// is cut without buffering the whole stream.
//
// Events arrive one at a time through Event, or as lines of the text
// trace format through Line:
//
//	# comment
//	tasks t1 t2 t3 t4
//	period
//	exec t1 0 10
//	msg m1 12 15
//	start t2 16
//	end t2 20
//	rise m2 21
//	fall m2 23
//
// "tasks" declares the predefined task set. "period" is a PeriodMark.
// "exec NAME START END" is a task's start and end, "msg ID RISE FALL" a
// message's rise and fall, and "start NAME T", "end NAME T", "rise ID T"
// and "fall ID T" are single events. Blank lines and '#' comments are
// ignored.
//
// A PeriodMark closes the open period when any event arrived since the
// previous mark. No pair may be open at the cut, each task runs at most
// once per period, and every emitted period has passed the per-period
// checks of Trace.Validate. Event order is authoritative, so clocks
// may restart every period.
//
// The task set is fixed at construction; a "tasks" line fed to Line is
// accepted only when it matches it exactly, so recorded trace files
// replay verbatim.
//
// LineReader is not safe for concurrent use. Clone supports two-phase
// ingest: parse a batch on a clone, and only commit the clone as the
// new state once the batch is accepted (see internal/serve's
// backpressure path).
type LineReader struct {
	tasks     []string
	known     map[string]bool
	cur       *Period
	started   bool
	openStart map[string]int64
	openRise  map[string]int64
	line      int      // lines consumed, for error positions
	buf       [2]Event // Parse's result
}

// NewLineReader returns a LineReader over the given predefined task
// set.
func NewLineReader(tasks []string) (*LineReader, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("trace: empty task set")
	}
	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t == "" {
			return nil, fmt.Errorf("trace: empty task name")
		}
		if seen[t] {
			return nil, fmt.Errorf("trace: duplicate task %q", t)
		}
		seen[t] = true
	}
	return newLineReader(tasks), nil
}

// newLineReader is NewLineReader without the task-set checks, for
// FromEvents, which has always taken any task set.
func newLineReader(tasks []string) *LineReader {
	known := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		known[t] = true
	}
	return &LineReader{
		tasks:     append([]string(nil), tasks...),
		known:     known,
		cur:       &Period{Index: 0, Execs: map[string]Interval{}},
		openStart: map[string]int64{},
		openRise:  map[string]int64{},
	}
}

// Tasks returns the reader's predefined task set.
func (lr *LineReader) Tasks() []string { return append([]string(nil), lr.tasks...) }

// Partial reports whether the open period has accumulated any events —
// state that a Flush (or the closing "period" line) has not yet
// emitted.
func (lr *LineReader) Partial() bool {
	return lr.started || len(lr.openStart) > 0 || len(lr.openRise) > 0
}

// Clone returns an independent deep copy of the reader state.
func (lr *LineReader) Clone() *LineReader {
	cp := *lr // tasks and known are immutable after construction
	cp.cur = lr.cur.Clone()
	cp.openStart = maps.Clone(lr.openStart)
	cp.openRise = maps.Clone(lr.openRise)
	return &cp
}

// Line consumes one line of the text format. It returns the completed
// period when the line closed one (a "period" directive after at
// least one event), and nil otherwise. Errors leave the reader in an
// undefined state; the caller owns discarding it (or the clone it
// parsed into).
func (lr *LineReader) Line(s string) (*Period, error) {
	evs, err := lr.Parse(s)
	if err != nil {
		return nil, err
	}
	var p *Period
	for _, ev := range evs {
		if p, err = lr.Event(ev); err != nil {
			return nil, atLine(lr.line, err)
		}
	}
	return p, nil
}

// Parse parses one line of the text format into the events it denotes,
// without applying them: Line is Parse followed by Event on each
// result. A "tasks" line is checked against the reader's task set and
// yields no events. The result is valid until the next Parse.
func (lr *LineReader) Parse(s string) ([]Event, error) {
	lr.line++
	evs, tasks, err := parseLine(s, lr.buf[:0])
	if err == nil && tasks != nil {
		err = lr.checkTasks(tasks)
	}
	if err != nil {
		return nil, atLine(lr.line, err)
	}
	return evs, nil
}

func (lr *LineReader) checkTasks(tasks []string) error {
	if len(tasks) != len(lr.tasks) {
		return fmt.Errorf("trace: stream declares %d tasks, reader is configured for %d", len(tasks), len(lr.tasks))
	}
	for i, t := range tasks {
		if t != lr.tasks[i] {
			return fmt.Errorf("trace: stream task %d is %q, reader is configured for %q", i, t, lr.tasks[i])
		}
	}
	return nil
}

// Event applies one event. A PeriodMark closes the open period and
// returns it, or nil when no event arrived since the previous mark;
// every other kind returns nil. Errors leave the reader in an
// undefined state, as for Line.
func (lr *LineReader) Event(ev Event) (*Period, error) {
	switch ev.Kind {
	case PeriodMark:
		return lr.cut()
	case TaskStart:
		if !lr.known[ev.Name] {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTask, ev.Name)
		}
		if _, dup := lr.cur.Execs[ev.Name]; dup {
			return nil, fmt.Errorf("%w: %q in period %d", ErrDuplicateExec, ev.Name, lr.cur.Index)
		}
		if _, open := lr.openStart[ev.Name]; open {
			return nil, fmt.Errorf("%w: double start of %q", ErrUnmatchedEvent, ev.Name)
		}
		lr.openStart[ev.Name] = ev.Time
	case TaskEnd:
		st, ok := lr.openStart[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w: end of %q without start", ErrUnmatchedEvent, ev.Name)
		}
		delete(lr.openStart, ev.Name)
		lr.cur.Execs[ev.Name] = Interval{Start: st, End: ev.Time}
	case MsgRise:
		if _, open := lr.openRise[ev.Name]; open {
			return nil, fmt.Errorf("%w: double rise of %q", ErrUnmatchedEvent, ev.Name)
		}
		lr.openRise[ev.Name] = ev.Time
	case MsgFall:
		rise, ok := lr.openRise[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w: fall of %q without rise", ErrUnmatchedEvent, ev.Name)
		}
		delete(lr.openRise, ev.Name)
		lr.cur.Msgs = append(lr.cur.Msgs, Message{ID: ev.Name, Rise: rise, Fall: ev.Time})
	default:
		return nil, fmt.Errorf("trace: invalid event kind %d", ev.Kind)
	}
	lr.started = true
	return nil, nil
}

// Flush closes the open period and returns it, or nil when no events
// are pending. It fails when a task or message is still open — the
// feed ended mid-event-pair — leaving the reader unchanged so the
// caller can report and decide.
func (lr *LineReader) Flush() (*Period, error) { return lr.cut() }

func (lr *LineReader) cut() (*Period, error) {
	if len(lr.openStart) > 0 || len(lr.openRise) > 0 {
		return nil, fmt.Errorf("%w: period %d has %d open task(s) and %d open message(s)",
			ErrCrossingPeriod, lr.cur.Index, len(lr.openStart), len(lr.openRise))
	}
	if !lr.started {
		return nil, nil
	}
	p := lr.cur
	sortPeriodMessages(p)
	if err := validateOnePeriod(p, lr.known); err != nil {
		return nil, err
	}
	lr.cur = &Period{Index: p.Index + 1, Execs: map[string]Interval{}}
	lr.started = false
	return p, nil
}

// edgeKinds maps each event directive of the text format to the kinds
// of the events it denotes, one per timestamp field.
var edgeKinds = map[string][]Kind{
	"exec": {TaskStart, TaskEnd}, "msg": {MsgRise, MsgFall},
	"start": {TaskStart}, "end": {TaskEnd}, "rise": {MsgRise}, "fall": {MsgFall},
}

// parseLine parses one line of the text format, appending the events
// it denotes to evs. A "tasks" declaration yields no events and returns
// its names as a non-nil slice.
func parseLine(s string, evs []Event) ([]Event, []string, error) {
	f := strings.Fields(s)
	if len(f) == 0 || f[0][0] == '#' {
		return evs, nil, nil
	}
	switch f[0] {
	case "tasks":
		return evs, f[1:], nil
	case "period":
		return append(evs, Event{Kind: PeriodMark}), nil, nil
	}
	kinds, ok := edgeKinds[f[0]]
	if !ok {
		return nil, nil, fmt.Errorf("trace: unknown directive %q", f[0])
	}
	if len(f) != 2+len(kinds) {
		return nil, nil, fmt.Errorf("%w: %s wants a name and %d timestamp(s)", ErrTruncatedEvent, f[0], len(kinds))
	}
	for i, k := range kinds {
		t, err := strconv.ParseInt(f[2+i], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrBadTimestamp, f[2+i])
		}
		evs = append(evs, Event{Time: t, Kind: k, Name: f[1]})
	}
	return evs, nil, nil
}

// lineError places an error at a line of the text format.
type lineError struct {
	line int
	err  error
}

func atLine(n int, err error) error { return &lineError{line: n, err: err} }

func (e *lineError) Error() string {
	return fmt.Sprintf("trace: line %d: %s", e.line, strings.TrimPrefix(e.err.Error(), "trace: "))
}

func (e *lineError) Unwrap() error { return e.err }

func sortPeriodMessages(p *Period) {
	sort.SliceStable(p.Msgs, func(i, j int) bool { return p.Msgs[i].Rise < p.Msgs[j].Rise })
}
