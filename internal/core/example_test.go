package core_test

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Build a tiny hinted I/O trace by hand, run CLIC over it, and watch it
// learn which hint set identifies good caching candidates.
func Example() {
	// Two kinds of request in one stream: "hot" pages are written and
	// quickly re-read, "cold" pages are written once and never touched
	// again. The hint sets are opaque to CLIC; their names are for us.
	t := trace.New("quickstart", 4096)
	hot := t.Dict.Intern(hint.Make("reqtype", "repl-write", "object", "stock"))
	cold := t.Dict.Intern(hint.Make("reqtype", "rec-write", "object", "log"))

	const hotPages = 64
	coldPage := uint64(1000)
	for round := 0; round < 400; round++ {
		for p := uint64(0); p < hotPages; p++ {
			// A write announces the page (a caching opportunity)…
			t.Append(p, trace.Write, hot)
		}
		for p := uint64(0); p < hotPages; p++ {
			// …and a quick re-read rewards caching it.
			t.Append(p, trace.Read, hot)
		}
		for i := 0; i < 32; i++ {
			t.Append(coldPage, trace.Write, cold)
			coldPage++
		}
	}
	fmt.Printf("trace: %d requests, %d distinct pages, %d hint sets\n",
		t.Len(), t.Stats().DistinctPages, t.Stats().DistinctHints)

	// A cache big enough for the hot set only.
	clic := core.New(core.Config{Capacity: hotPages + 16, Window: 2000})
	res := sim.Run(clic, t)
	fmt.Printf("CLIC read hit ratio: %s (over %d statistics windows)\n",
		report.Pct(res.HitRatio()), clic.Windows())

	// The replacement-write hint set earns a positive priority; the
	// recovery-write one stays at zero. Priorities is a map, so sort the
	// rows: highest Pr(H) first, ties by key.
	type row struct {
		key string
		pr  float64
	}
	var rows []row
	for h, pr := range clic.Priorities() {
		rows = append(rows, row{t.Dict.Key(h), pr})
	}
	slices.SortFunc(rows, func(a, b row) int {
		return cmp.Or(cmp.Compare(b.pr, a.pr), cmp.Compare(a.key, b.key))
	})
	fmt.Printf("%-32s %s\n", "hint set", "Pr(H)")
	for _, r := range rows {
		fmt.Printf("%-32s %s\n", r.key, report.Sci(r.pr))
	}
	// Output:
	// trace: 64000 requests, 12864 distinct pages, 2 hint sets
	// CLIC read hit ratio: 100.0% (over 32 statistics windows)
	// hint set                         Pr(H)
	// reqtype=repl-write|object=stock  0.00805
	// reqtype=rec-write|object=log     0
}
