// Command traceinfo inspects a binary trace file: its Figure-5 summary row
// and, with -hints, its hint-type domains (Figure 2) and most frequent hint
// sets. With -windows W it streams the trace through the scanner (never
// loading it whole) and prints one row per W-request window — requests,
// reads, writes, unique pages, unique hint sets — the request-count windows
// CLIC's learner rotates on.
//
// Usage:
//
//	traceinfo traces/DB2_C60.trc
//	traceinfo -hints traces/DB2_C60.trc
//	traceinfo -windows 100000 traces/DB2_C60.trc
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	hints := flag.Bool("hints", false, "also print hint domains and top hint sets")
	windows := flag.Int("windows", 0, "print per-window rows for this window size in requests (streaming)")
	flag.Parse()
	if *windows < 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: -windows %d: must not be negative (0 = no windows)\n", *windows)
		os.Exit(1)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-hints] [-windows W] trace.trc...")
		os.Exit(2)
	}
	if *windows > 0 {
		for _, path := range flag.Args() {
			if err := printWindows(path, *windows); err != nil {
				fmt.Fprintln(os.Stderr, "traceinfo:", err)
				os.Exit(1)
			}
		}
		return
	}
	for _, path := range flag.Args() {
		t, err := trace.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
		s := t.Stats()
		tbl := report.NewTable("trace "+t.Name,
			"requests", "reads", "writes", "distinct hint sets", "distinct pages", "clients")
		tbl.AddRow(report.Num(s.Requests), report.Num(s.Reads), report.Num(s.Writes),
			report.Num(s.DistinctHints), report.Num(s.DistinctPages), report.Num(s.Clients))
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "traceinfo:", err)
			os.Exit(1)
		}
		if *hints {
			printHints(t)
		}
	}
}

// printWindows streams the trace through the scanner — constant memory no
// matter the trace length — and prints one summary row per window of w
// requests, plus a trailing partial-window row when the trace doesn't
// divide evenly.
func printWindows(path string, w int) error {
	sc, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer sc.Close()

	tbl := report.NewTable(fmt.Sprintf("%s — windows of %s requests", sc.Name(), report.Num(w)),
		"window", "requests", "reads", "writes", "unique pages", "unique hint sets")
	var (
		idx, n, reads, writes int
		pages                 = make(map[uint64]struct{})
		hintSets              = make(map[uint32]struct{})
	)
	flush := func() {
		tbl.AddRow(fmt.Sprintf("%d", idx), report.Num(n), report.Num(reads), report.Num(writes),
			report.Num(len(pages)), report.Num(len(hintSets)))
		idx++
		n, reads, writes = 0, 0, 0
		clear(pages)
		clear(hintSets)
	}
	for sc.Scan() {
		r := sc.Request()
		n++
		if r.Op == trace.Read {
			reads++
		} else {
			writes++
		}
		pages[r.Page] = struct{}{}
		hintSets[uint32(r.Hint)] = struct{}{}
		if n == w {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n > 0 {
		flush()
	}
	return tbl.Render(os.Stdout)
}

func printHints(t *trace.Trace) {
	domains := t.Dict.Domains()
	types := make([]string, 0, len(domains))
	for typ := range domains {
		types = append(types, typ)
	}
	sort.Strings(types)
	dt := report.NewTable("hint type domains", "hint type", "cardinality")
	for _, typ := range types {
		dt.AddRow(typ, report.Num(len(domains[typ])))
	}
	_ = dt.Render(os.Stdout)

	counts := make(map[uint32]int)
	for _, r := range t.Reqs {
		counts[r.Hint]++
	}
	type hc struct {
		id uint32
		n  int
	}
	list := make([]hc, 0, len(counts))
	for id, n := range counts {
		list = append(list, hc{id, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].id < list[j].id
	})
	top := report.NewTable("top 20 hint sets by frequency", "hint set", "requests")
	for i, e := range list {
		if i == 20 {
			break
		}
		top.AddRow(t.Dict.Key(e.id), report.Num(e.n))
	}
	_ = top.Render(os.Stdout)
}
