// Command tracegen generates the paper's workload traces (Figure 5) and
// streams them to trace files without ever materialising a trace, so memory
// stays bounded at any request count.
//
// Usage:
//
//	tracegen -out traces/                              # all eight presets
//	tracegen -spec DB2_C60:200000 -out traces/         # traces/DB2_C60.trc
//	tracegen -spec 'DB2_C60*8:100000000' -o big.trc -progress -verify
//
// Preset names: DB2_C60, DB2_C300, DB2_C540, DB2_H80, DB2_H400, DB2_H720,
// MY_H65, MY_H98. A generator spec, PRESET[*clients][:requests][@seed],
// names the preset, the number of interleaved clients, the total request
// count and the seed in one string; without -spec every preset is written
// at its defaults to <out>/<name>.trc.
//
// -workers sets the parallel block encoders (0 = all cores; the output
// bytes are identical at any setting), -progress reports throughput every
// million requests, and -verify re-scans the written file end to end,
// checking the block checksums and the trailer counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		out      = flag.String("out", "traces", "output directory")
		spec     = flag.String("spec", "", "generator spec PRESET[*clients][:requests][@seed] (empty = every preset)")
		outFile  = flag.String("o", "", "output file for -spec (default <out>/<preset name>.trc)")
		workers  = flag.Int("workers", 0, "parallel block encoders (0 = all cores)")
		progress = flag.Bool("progress", false, "report throughput every 1M requests")
		verifyF  = flag.Bool("verify", false, "re-scan each written file and check its integrity")
	)
	flag.Parse()
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d: must not be negative (0 = all cores)", *workers))
	}

	specs := []string{*spec}
	if *spec == "" {
		if *outFile != "" {
			fatal(fmt.Errorf("-o names one file; it needs -spec"))
		}
		specs = specs[:0]
		for _, p := range workload.Presets() {
			specs = append(specs, p.Name)
		}
	}
	for _, str := range specs {
		s, err := workload.ParseSpec(str)
		if err != nil {
			fatal(err)
		}
		path := *outFile
		if path == "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
			path = filepath.Join(*out, s.Preset.Name+".trc")
		}
		generate(s, path, *workers, *progress)
		if *verifyF {
			verifyFile(path, uint64(s.Preset.Requests))
		}
	}
}

// generate streams a spec straight into a trace file: generator goroutines
// feed the parallel block encoder through bounded pipes, so the resident
// set stays flat no matter how many requests are asked for.
func generate(s workload.Spec, path string, workers int, progress bool) {
	w, err := trace.Create(path, s.Preset.Name, s.Preset.PageSize, s.ClientNames(),
		trace.WriterOptions{Workers: workers})
	if err != nil {
		fatal(err)
	}
	var sink trace.Sink = w
	start := time.Now()
	if progress {
		sink = &progressSink{Sink: w, start: start}
	}
	fmt.Printf("streaming %s (%d clients, %d requests) -> %s\n",
		s.String(), s.Clients, s.Preset.Requests, path)
	if err := s.GenerateTo(sink); err != nil {
		w.Close()
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("done: %s requests, %s bytes in %.1fs (%.2fM req/s, %.1f MB/s)\n",
		report.Num(s.Preset.Requests), report.Num(fi.Size()), elapsed.Seconds(),
		float64(s.Preset.Requests)/elapsed.Seconds()/1e6,
		float64(fi.Size())/elapsed.Seconds()/1e6)
	// The bounded-memory claim, measured: the kernel's high-water mark for
	// this process (Linux only; silently absent elsewhere).
	// TestStreamingBoundedMemory asserts on this line at paper scale.
	if kb := peakRSSKB(); kb > 0 {
		fmt.Printf("peak rss: %d KB\n", kb)
	}
}

// verifyFile re-reads the whole file through the scanner, which checks the
// per-block CRCs and the trailer's request and dictionary counts, and
// cross-checks the scanned request count against the expected one.
func verifyFile(path string, want uint64) {
	start := time.Now()
	it, err := trace.Open(path)
	if err != nil {
		fatal(fmt.Errorf("verify: %w", err))
	}
	defer it.Close()
	var n uint64
	for run := it.Next(); len(run) > 0; run = it.Next() {
		n += uint64(len(run))
	}
	if err := it.Err(); err != nil {
		fatal(fmt.Errorf("verify: %w", err))
	}
	if n != want {
		fatal(fmt.Errorf("verify: scanned %d requests, wrote %d", n, want))
	}
	fmt.Printf("verify: OK — %s requests, %d hint sets, %d clients (%.1fs)\n",
		report.Num(n), it.HintDict().Len(), len(it.Clients()), time.Since(start).Seconds())
}

// progressSink wraps the writer with a once-per-million-requests
// throughput report on stderr.
type progressSink struct {
	trace.Sink
	n     uint64
	start time.Time
}

func (p *progressSink) AppendReq(r trace.Request) {
	p.Sink.AppendReq(r)
	p.n++
	if p.n%1_000_000 == 0 {
		el := time.Since(p.start).Seconds()
		fmt.Fprintf(os.Stderr, "  %4dM requests, %.2fM req/s\n", p.n/1_000_000, float64(p.n)/el/1e6)
	}
}

// peakRSSKB reads the process's peak resident set size (VmHWM) from
// /proc/self/status. Returns 0 where that interface doesn't exist.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
