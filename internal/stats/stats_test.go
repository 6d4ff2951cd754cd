package stats

import (
	"strings"
	"testing"

	"mgs/internal/obs"
)

func TestChargeAndBreakdown(t *testing.T) {
	for _, o := range []*obs.Observer{nil, obs.New().EnableProfiling()} {
		c := NewCollector(2, o)
		c.Charge(0, User, 100)
		k, id := c.ProfSet(0, obs.ObjPage, 7)
		c.Charge(0, MGS, 50)
		c.ProfSet(0, k, id)
		c.Charge(0, User, 0)
		c.Charge(1, Barrier, 30)

		b := c.Breakdown()
		if b.PerProc[0][User] != 100 || b.PerProc[0][MGS] != 50 {
			t.Fatalf("proc 0 buckets = %v", b.PerProc[0])
		}
		if b.PerProc[1][Barrier] != 30 {
			t.Fatalf("proc 1 buckets = %v", b.PerProc[1])
		}
		if b.Total[User] != 100 || b.Avg[User] != 50 {
			t.Fatalf("totals wrong: %v / %v", b.Total, b.Avg)
		}
		if got := b.AvgTotal(); got != 90 {
			t.Fatalf("AvgTotal = %v, want 90", got)
		}
		if o == nil {
			continue
		}
		if h := o.Profiler().Heat(obs.ObjPage); len(h) != 1 || h[0].ID != 7 || h[0].Cycles != 50 {
			t.Fatalf("page heat = %+v, want page 7 with 50 MGS cycles", h)
		}
	}
}

func TestCounters(t *testing.T) {
	c := NewCollector(1, nil)
	c.Count("rreq", 2)
	c.Count("rel", 1)
	c.Count("rreq", 1)
	if c.Counter("rreq") != 3 {
		t.Fatalf("rreq = %d", c.Counter("rreq"))
	}
	all := c.Counters()
	if len(all) != 2 || all[0] != "rel=1" || all[1] != "rreq=3" {
		t.Fatalf("Counters() = %v", all)
	}
}

func TestBreakdownString(t *testing.T) {
	c := NewCollector(1, nil)
	c.Charge(0, User, 10)
	s := c.Breakdown().String()
	for _, want := range []string{"User=10", "Lock=0", "Barrier=0", "MGS=0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{User: "User", Lock: "Lock", Barrier: "Barrier", MGS: "MGS"}
	for c, n := range want {
		if c.String() != n {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), n)
		}
	}
}
