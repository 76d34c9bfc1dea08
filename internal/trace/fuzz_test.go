package trace

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzRead checks that the trace parser never panics, that every
// accepted input survives a write/read round trip, and that every
// accepted trace that also passes Validate comes back unchanged from
// FromEvents over its own event stream.
func FuzzRead(f *testing.F) {
	f.Add("tasks a b\nperiod\nexec a 0 5\nmsg m1 6 7\nexec b 9 12\n")
	f.Add("tasks t1\nperiod\nstart t1 0\nend t1 4\n")
	f.Add("# comment\n\ntasks x\nperiod\n")
	f.Add("tasks a\nexec a 5 1\n")
	f.Add("period\n")
	f.Add("tasks a\nmsg m 1\n")
	f.Add("tasks a\nexec a 5 5\nmsg m 7 7\n")
	f.Add("tasks a b\nexec a 0 5\nperiod\nexec b 5 6\n")
	f.Add("tasks a\nmsg m1 2 9\nmsg m2 2 4\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadString(input)
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadString(sb.String())
		if err != nil {
			t.Fatalf("serialized trace failed to parse: %v\n%s", err, sb.String())
		}
		if back.Stats() != tr.Stats() {
			t.Fatalf("round trip changed stats: %+v vs %+v", back.Stats(), tr.Stats())
		}
		if tr.Validate() != nil {
			return // per-period clocks: legal text, not an event stream
		}
		fromEvents, err := FromEvents(tr.Tasks, tr.Events())
		if err != nil {
			t.Fatalf("FromEvents(Events()) rejects a valid trace: %v\n%s", err, tr)
		}
		if !sameTrace(fromEvents, tr) {
			t.Fatalf("FromEvents(Events()) changed the trace:\n%s\nwant:\n%s", fromEvents, tr)
		}
	})
}

// sameTrace compares two traces exactly, except for the order of
// messages that rise at the same time: an event stream carries none
// (FromEvents orders them by fall), so both sides are put in (rise,
// fall) order first.
func sameTrace(a, b *Trace) bool {
	if !reflect.DeepEqual(a.Tasks, b.Tasks) || len(a.Periods) != len(b.Periods) {
		return false
	}
	for i, p := range a.Periods {
		q := b.Periods[i]
		if p.Index != q.Index || !reflect.DeepEqual(p.Execs, q.Execs) ||
			!reflect.DeepEqual(byRiseFall(p.Msgs), byRiseFall(q.Msgs)) {
			return false
		}
	}
	return true
}

func byRiseFall(ms []Message) []Message {
	out := append([]Message(nil), ms...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rise != out[j].Rise {
			return out[i].Rise < out[j].Rise
		}
		return out[i].Fall < out[j].Fall
	})
	return out
}

// FuzzFromEventsPeriodic checks the segmenter against arbitrary event
// streams encoded as byte triples.
func FuzzFromEventsPeriodic(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 20, 2}, int64(100))
	f.Add([]byte{}, int64(50))
	f.Fuzz(func(t *testing.T, raw []byte, periodLen int64) {
		var events []Event
		for i := 0; i+2 < len(raw); i += 3 {
			events = append(events, Event{
				Time: int64(raw[i+1]) * 7,
				Kind: Kind(raw[i] % 5),
				Name: string(rune('a' + raw[i+2]%3)),
			})
		}
		tr, err := FromEventsPeriodic([]string{"a", "b", "c"}, events, 0, periodLen)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
	})
}
