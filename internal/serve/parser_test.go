package serve

import (
	"reflect"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestGridCutsOnOpeningEvents: on a period_us stream, a pair that spans
// a grid line stays in the period it opened in, whether it arrives as
// one exec/msg line or as its two edges. Only an opening event (start,
// rise, or the first half of exec/msg) crosses the grid and cuts.
func TestGridCutsOnOpeningEvents(t *testing.T) {
	const periodUS = 20000
	cases := []struct {
		name string
		pair string
		want *trace.Trace
	}{
		{"exec", "exec b 19000 21000",
			trace.NewBuilder([]string{"a", "b"}).Exec("a", 0, 100).Exec("b", 19000, 21000).MustBuild()},
		{"start/end", "start b 19000\nend b 21000",
			trace.NewBuilder([]string{"a", "b"}).Exec("a", 0, 100).Exec("b", 19000, 21000).MustBuild()},
		{"msg", "msg m 19000 21000",
			trace.NewBuilder([]string{"a", "b"}).Exec("a", 0, 100).Msg("m", 19000, 21000).MustBuild()},
		{"rise/fall", "rise m 19000\nfall m 21000",
			trace.NewBuilder([]string{"a", "b"}).Exec("a", 0, 100).Msg("m", 19000, 21000).MustBuild()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := newParser([]string{"a", "b"}, 0, periodUS)
			if err != nil {
				t.Fatal(err)
			}
			feed := "exec a 0 100\n" + tc.pair + "\nexec a 22000 22100"
			var got []*trace.Period
			for _, line := range strings.Split(feed, "\n") {
				ps, err := p.feed(line)
				if err != nil {
					t.Fatalf("feed(%q): %v", line, err)
				}
				got = append(got, ps...)
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], tc.want.Periods[0]) {
				t.Fatalf("periods = %+v, want one period %+v", got, tc.want.Periods[0])
			}
			if !p.partial() {
				t.Fatal("the opening event past the grid line did not start a new period")
			}
		})
	}
}

// TestGridCutFarTimestamp: an opening event far past the grid moves the
// boundary in one step, not one grid slot at a time, so a client
// timestamp cannot pin the ingest path; the boundary lands on the
// grid just past the event.
func TestGridCutFarTimestamp(t *testing.T) {
	p, err := newParser([]string{"a", "b"}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"exec a 1 2", "exec b 4000000000000000001 4000000000000000002"} {
		if _, err := p.feed(line); err != nil {
			t.Fatalf("feed(%q): %v", line, err)
		}
	}
	if want := int64(4000000000000000003); p.boundary != want {
		t.Fatalf("boundary = %d, want %d", p.boundary, want)
	}
}
