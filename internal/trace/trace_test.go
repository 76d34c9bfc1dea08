package trace

import (
	"errors"
	"strings"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	tr := NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 5).Msg("m1", 6, 7).Exec("b", 8, 12).
		StartPeriod().Exec("a", 20, 25).
		MustBuild()
	if got := len(tr.Periods); got != 2 {
		t.Fatalf("periods = %d, want 2", got)
	}
	p0 := tr.Periods[0]
	if !p0.Executed("a") || !p0.Executed("b") {
		t.Error("period 0 should execute a and b")
	}
	if p0.Executed("c") {
		t.Error("period 0 should not execute c")
	}
	if len(p0.Msgs) != 1 || p0.Msgs[0].ID != "m1" {
		t.Errorf("period 0 msgs = %+v", p0.Msgs)
	}
	if tr.Periods[1].Executed("b") {
		t.Error("period 1 should not execute b")
	}
}

func TestBuilderUnknownTask(t *testing.T) {
	_, err := NewBuilder([]string{"a"}).StartPeriod().Exec("zz", 0, 1).Build()
	if !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
}

func TestBuilderDuplicateExec(t *testing.T) {
	_, err := NewBuilder([]string{"a"}).StartPeriod().Exec("a", 0, 1).Exec("a", 2, 3).Build()
	if !errors.Is(err, ErrDuplicateExec) {
		t.Fatalf("err = %v, want ErrDuplicateExec", err)
	}
}

func TestBuilderImplicitPeriod(t *testing.T) {
	tr := NewBuilder([]string{"a"}).Exec("a", 0, 1).MustBuild()
	if len(tr.Periods) != 1 {
		t.Fatalf("periods = %d, want 1", len(tr.Periods))
	}
}

func TestBuilderSortsMessages(t *testing.T) {
	tr := NewBuilder([]string{"a"}).
		StartPeriod().Exec("a", 0, 1).Msg("m2", 10, 11).Msg("m1", 2, 3).
		MustBuild()
	if tr.Periods[0].Msgs[0].ID != "m1" {
		t.Errorf("messages not sorted by rise: %+v", tr.Periods[0].Msgs)
	}
}

func TestValidateInvertedInterval(t *testing.T) {
	tr := New([]string{"a"})
	tr.Periods = append(tr.Periods, &Period{Execs: map[string]Interval{"a": {5, 1}}})
	if err := tr.Validate(); !errors.Is(err, ErrInvertedEvent) {
		t.Fatalf("err = %v, want ErrInvertedEvent", err)
	}
}

func TestValidateDuplicateMsgID(t *testing.T) {
	tr := New([]string{"a"})
	tr.Periods = append(tr.Periods, &Period{
		Execs: map[string]Interval{},
		Msgs:  []Message{{ID: "m", Rise: 0, Fall: 1}, {ID: "m", Rise: 2, Fall: 3}},
	})
	if err := tr.Validate(); !errors.Is(err, ErrDuplicateMsgID) {
		t.Fatalf("err = %v, want ErrDuplicateMsgID", err)
	}
}

func TestValidateUnsortedPeriods(t *testing.T) {
	tr := New([]string{"a"})
	tr.Periods = append(tr.Periods,
		&Period{Index: 0, Execs: map[string]Interval{"a": {100, 110}}},
		&Period{Index: 1, Execs: map[string]Interval{"a": {0, 10}}})
	if err := tr.Validate(); !errors.Is(err, ErrUnsortedPeriods) {
		t.Fatalf("err = %v, want ErrUnsortedPeriods", err)
	}
}

func TestFromEvents(t *testing.T) {
	evs := []Event{
		{0, PeriodMark, ""},
		{1, TaskStart, "a"},
		{5, TaskEnd, "a"},
		{6, MsgRise, "m1"},
		{7, MsgFall, "m1"},
		{8, TaskStart, "b"},
		{9, TaskEnd, "b"},
		{10, PeriodMark, ""},
		{11, TaskStart, "a"},
		{12, TaskEnd, "a"},
	}
	tr, err := FromEvents([]string{"a", "b"}, evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) != 2 {
		t.Fatalf("periods = %d, want 2", len(tr.Periods))
	}
	if got := tr.Periods[0].Execs["a"]; got != (Interval{1, 5}) {
		t.Errorf("a interval = %+v", got)
	}
	if len(tr.Periods[0].Msgs) != 1 {
		t.Errorf("period 0 msgs = %+v", tr.Periods[0].Msgs)
	}
}

func TestFromEventsUnsortedInput(t *testing.T) {
	evs := []Event{
		{5, TaskEnd, "a"},
		{1, TaskStart, "a"},
	}
	tr, err := FromEvents([]string{"a"}, evs)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Periods[0].Execs["a"]; got != (Interval{1, 5}) {
		t.Errorf("a interval = %+v", got)
	}
}

func TestFromEventsCrossingPeriod(t *testing.T) {
	evs := []Event{
		{1, TaskStart, "a"},
		{2, PeriodMark, ""},
		{3, TaskEnd, "a"},
	}
	if _, err := FromEvents([]string{"a"}, evs); !errors.Is(err, ErrCrossingPeriod) {
		t.Fatalf("err = %v, want ErrCrossingPeriod", err)
	}
}

func TestFromEventsUnmatched(t *testing.T) {
	cases := [][]Event{
		{{1, TaskEnd, "a"}},
		{{1, MsgFall, "m"}},
		{{1, TaskStart, "a"}, {2, TaskStart, "a"}, {3, TaskEnd, "a"}, {4, TaskEnd, "a"}},
		{{1, MsgRise, "m"}, {2, MsgRise, "m"}, {3, MsgFall, "m"}, {4, MsgFall, "m"}},
	}
	for i, evs := range cases {
		if _, err := FromEvents([]string{"a"}, evs); err == nil {
			t.Errorf("case %d: no error for unmatched events", i)
		}
	}
}

func TestFromEventsPeriodic(t *testing.T) {
	evs := []Event{
		{1, TaskStart, "a"}, {5, TaskEnd, "a"},
		{101, TaskStart, "a"}, {105, TaskEnd, "a"},
		{201, TaskStart, "a"}, {203, TaskEnd, "a"},
	}
	tr, err := FromEventsPeriodic([]string{"a"}, evs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) != 3 {
		t.Fatalf("periods = %d, want 3", len(tr.Periods))
	}
}

func TestFromEventsPeriodicCrossing(t *testing.T) {
	evs := []Event{{90, TaskStart, "a"}, {110, TaskEnd, "a"}}
	if _, err := FromEventsPeriodic([]string{"a"}, evs, 0, 100); !errors.Is(err, ErrCrossingPeriod) {
		t.Fatalf("err = %v, want ErrCrossingPeriod", err)
	}
}

func TestFromEventsPeriodicBadLength(t *testing.T) {
	if _, err := FromEventsPeriodic([]string{"a"}, nil, 0, 0); err == nil {
		t.Fatal("no error for zero period length")
	}
}

func TestEventsRoundTrip(t *testing.T) {
	orig := PaperFigure2()
	evs := orig.Events()
	back, err := FromEvents(orig.Tasks, evs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.String(), orig.String(); got != want {
		t.Errorf("round trip mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTextRoundTrip(t *testing.T) {
	orig := PaperFigure2()
	var sb strings.Builder
	if err := Write(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.String(), orig.String(); got != want {
		t.Errorf("text round trip mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestReadEventForm(t *testing.T) {
	in := `
# event-level form
tasks a b
period
start a 1
end a 5
rise m1 6
fall m1 7
start b 8
end b 9
`
	tr, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) != 1 {
		t.Fatalf("periods = %d", len(tr.Periods))
	}
	if got := tr.Periods[0].Execs["a"]; got != (Interval{1, 5}) {
		t.Errorf("a = %+v", got)
	}
	if got := tr.Periods[0].Msgs[0]; got != (Message{"m1", 6, 7}) {
		t.Errorf("m1 = %+v", got)
	}
}

func TestReadPerPeriodClocks(t *testing.T) {
	// Timestamps restart every period: legal in the text format.
	in := `tasks a
period
exec a 0 5
period
exec a 0 5
`
	tr, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Periods) != 2 {
		t.Fatalf("periods = %d", len(tr.Periods))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"period\nexec a 0 1\n",            // period before tasks
		"exec a 0 1\ntasks a\n",           // event before tasks
		"tasks a\ntasks b\n",              // duplicate tasks
		"tasks a a\n",                     // duplicate task name
		"tasks\n",                         // empty task set
		"tasks a\nexec a zero 1\n",        // bad number
		"tasks a\nexec a 0\n",             // arity
		"tasks a\nmsg m 0\n",              // arity
		"tasks a\nstart a\n",              // arity
		"tasks a\nbogus x\n",              // unknown directive
		"tasks a\nexec b 0 1\n",           // unknown task
		"tasks a\nexec a 0 1\nexec a 2 3", // duplicate exec
		"# only a comment\n",              // missing tasks
	}
	for i, in := range cases {
		_, err := ReadString(in)
		if err == nil {
			t.Errorf("case %d: no error for %q", i, in)
			continue
		}
		if n := strings.Count(err.Error(), "trace:"); n != 1 {
			t.Errorf("case %d: error %q has %d \"trace:\" prefixes, want 1", i, err, n)
		}
	}
}

func TestStats(t *testing.T) {
	s := PaperFigure2().Stats()
	if s.Periods != 3 {
		t.Errorf("Periods = %d, want 3", s.Periods)
	}
	if s.TaskExecutions != 3+3+4 {
		t.Errorf("TaskExecutions = %d, want 10", s.TaskExecutions)
	}
	if s.Messages != 8 {
		t.Errorf("Messages = %d, want 8", s.Messages)
	}
	if s.EventPairs != 18 {
		t.Errorf("EventPairs = %d, want 18", s.EventPairs)
	}
}

func TestSpan(t *testing.T) {
	tr := PaperFigure2()
	span := tr.Periods[0].Span()
	if span != (Interval{0, 42}) {
		t.Errorf("span = %+v, want {0 42}", span)
	}
	empty := &Period{Execs: map[string]Interval{}}
	if empty.Span() != (Interval{}) {
		t.Errorf("empty span = %+v", empty.Span())
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := PaperFigure2()
	cp := orig.Clone()
	cp.Periods[0].Execs["t1"] = Interval{999, 1000}
	cp.Periods[0].Msgs[0].ID = "zzz"
	if orig.Periods[0].Execs["t1"] == (Interval{999, 1000}) {
		t.Error("Clone shares exec maps")
	}
	if orig.Periods[0].Msgs[0].ID == "zzz" {
		t.Error("Clone shares message slices")
	}
}

func TestSlice(t *testing.T) {
	tr := PaperFigure2()
	s := tr.Slice(1, 3)
	if len(s.Periods) != 2 {
		t.Errorf("Slice(1,3) periods = %d, want 2", len(s.Periods))
	}
	if got := tr.Slice(-1, 99); len(got.Periods) != 3 {
		t.Errorf("Slice(-1,99) periods = %d, want 3", len(got.Periods))
	}
	if got := tr.Slice(2, 1); len(got.Periods) != 0 {
		t.Errorf("Slice(2,1) periods = %d, want 0", len(got.Periods))
	}
}

func TestExecutedTasksSorted(t *testing.T) {
	tr := NewBuilder([]string{"z", "a", "m"}).
		StartPeriod().Exec("z", 0, 1).Exec("a", 2, 3).Exec("m", 4, 5).
		MustBuild()
	got := tr.Periods[0].ExecutedTasks()
	want := []string{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExecutedTasks = %v, want %v", got, want)
		}
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{3, 7}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) || iv.Contains(2) {
		t.Error("Contains wrong")
	}
	if iv.Duration() != 4 {
		t.Errorf("Duration = %d", iv.Duration())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		TaskStart: "start", TaskEnd: "end", MsgRise: "rise", MsgFall: "fall", PeriodMark: "period",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("invalid kind string = %q", got)
	}
}

func TestPaperFigure2Shape(t *testing.T) {
	tr := PaperFigure2()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	wantTasks := [][]string{
		{"t1", "t2", "t4"},
		{"t1", "t3", "t4"},
		{"t1", "t2", "t3", "t4"},
	}
	wantMsgs := []int{2, 2, 4}
	for i, p := range tr.Periods {
		got := p.ExecutedTasks()
		if len(got) != len(wantTasks[i]) {
			t.Fatalf("period %d tasks = %v, want %v", i, got, wantTasks[i])
		}
		for j := range got {
			if got[j] != wantTasks[i][j] {
				t.Fatalf("period %d tasks = %v, want %v", i, got, wantTasks[i])
			}
		}
		if len(p.Msgs) != wantMsgs[i] {
			t.Fatalf("period %d msgs = %d, want %d", i, len(p.Msgs), wantMsgs[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := PaperFigure2()
	var buf strings.Builder
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != orig.String() {
		t.Errorf("JSON round trip mismatch:\n%s\nvs\n%s", back.String(), orig.String())
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`,
		`{"tasks":["a"],"periods":[{"execs":[{"task":"zz","start":0,"end":1}]}]}`,
		`{"tasks":["a"],"periods":[{"execs":[{"task":"a","start":5,"end":1}]}]}`,
		`{"tasks":["a"],"periods":[{"execs":[{"task":"a","start":0,"end":1},{"task":"a","start":2,"end":3}]}]}`,
	}
	for i, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}
