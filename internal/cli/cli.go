// Package cli declares, once, the flags that cmd/clicsim and cmd/clicserve
// share: the CLIC settings (-topk, -window, -r, -noutq) that become
// a core.Config, the timeline file (-timeline, -metrics-interval) and the
// runtime/pprof file profiles (-cpuprofile, -memprofile). Each command
// registers them next to its own flags and asks Flags for the pieces it
// uses, so the two commands cannot drift apart in name, default or help.
package cli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
)

// Flags holds the shared flags' values once the flag set is parsed.
type Flags struct {
	topk, window, noutq int
	decay               float64

	// Timeline is the -timeline path ("" = no timeline) and Interval its
	// -metrics-interval.
	Timeline string
	Interval time.Duration

	cpuprofile, memprofile string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.IntVar(&f.topk, "topk", 0, "CLIC: track only the k most frequent hint sets (0 = all)")
	fs.IntVar(&f.window, "window", 0, "CLIC: statistics window W (0 = default)")
	fs.Float64Var(&f.decay, "r", 0, "CLIC: decay parameter r (0 = default 1.0)")
	fs.IntVar(&f.noutq, "noutq", 0, "CLIC: outqueue entries (0 = 5 per cache page, -1 = none)")
	fs.StringVar(&f.Timeline, "timeline", "", "write per-interval metrics rows (CSV) to this file, replacing its contents (clicsim: -concurrent only)")
	fs.DurationVar(&f.Interval, "metrics-interval", time.Second, "-timeline: sampling interval")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile covering the run to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Config returns the CLIC settings as a core.Config whose Capacity the
// caller sets. It fails on the values Check rejects and on a
// -metrics-interval that is not positive.
func (f *Flags) Config() (core.Config, error) {
	cfg := core.Config{TopK: f.topk, Window: f.window, R: f.decay, Noutq: f.noutq}
	if err := Check(cfg); err != nil {
		return core.Config{}, err
	}
	if f.Interval <= 0 {
		return core.Config{}, fmt.Errorf("-metrics-interval %v: must be positive", f.Interval)
	}
	return cfg, nil
}

// Check rejects the CLIC settings that no cache accepts, naming the flag
// that sets each: a negative -cache, -topk or -window, an -noutq below
// core.NoOutqueue, or an -r outside [0, 1] (0 selects each one's
// default). Config calls it, cmd/clicsim and cmd/clicserve call it for
// their own -cache sizes, and cmd/experiments for its own -window and -r.
func Check(cfg core.Config) error {
	switch {
	case cfg.Capacity < 0:
		return fmt.Errorf("-cache %d: must not be negative", cfg.Capacity)
	case cfg.TopK < 0:
		return fmt.Errorf("-topk %d: must not be negative (0 = all hint sets)", cfg.TopK)
	case cfg.Window < 0:
		return fmt.Errorf("-window %d: must not be negative (0 = default)", cfg.Window)
	case cfg.Noutq < core.NoOutqueue:
		return fmt.Errorf("-noutq %d: must be at least %d (0 = 5 per cache page, %d = none)", cfg.Noutq, core.NoOutqueue, core.NoOutqueue)
	case !(cfg.R >= 0 && cfg.R <= 1):
		return fmt.Errorf("-r %v: must be in (0, 1] (0 = default 1.0)", cfg.R)
	}
	return nil
}

// StartTimeline creates (or truncates) the -timeline file and hands start
// a buffered writer over it and -metrics-interval; start attaches a
// recorder and returns the recorder's stop. The returned stop stops the
// recorder, then flushes and closes the file. Without -timeline, start is
// not called and stop does nothing.
func (f *Flags) StartTimeline(start func(w io.Writer, interval time.Duration) (stop func())) (stop func() error, err error) {
	if f.Timeline == "" {
		return func() error { return nil }, nil
	}
	file, err := os.Create(f.Timeline)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(file)
	stopRecorder := start(bw, f.Interval)
	return func() error {
		stopRecorder()
		// A write error the recorder met is sticky in bw, so Flush
		// reports it too.
		if err := bw.Flush(); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}, nil
}

// StartProfiles begins the -cpuprofile CPU profile, if set. The returned
// stop, called once at exit, ends it and writes the -memprofile heap
// profile, if set, after a GC, so that the profile shows live objects
// rather than transient garbage.
func (f *Flags) StartProfiles() (stop func() error, err error) {
	var cpuFile *os.File
	if f.cpuprofile != "" {
		file, err := os.Create(f.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, err
		}
		cpuFile = file
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			first = cpuFile.Close()
		}
		if f.memprofile != "" {
			file, err := os.Create(f.memprofile)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(file); err != nil && first == nil {
				first = err
			}
			if err := file.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
