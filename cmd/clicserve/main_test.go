package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
)

func TestCacheConfigPeers(t *testing.T) {
	peers := []string{":7071", ":7072"}
	for _, tc := range []struct {
		args  string
		peers []string
		want  core.StatsMode
	}{
		{"", nil, core.StatsPartitioned},
		{"-stats global", nil, core.StatsGlobal},
		{"-stats partitioned", nil, core.StatsPartitioned},
		{"", peers, core.StatsGlobal},
		{"-stats global", peers, core.StatsGlobal},
		{"-topk 5", peers, core.StatsGlobal},
	} {
		cfg, err := parseCacheConfig(t, tc.args, tc.peers)
		if err != nil || cfg.Stats != tc.want {
			t.Errorf("%q with peers %v = %v, %v; want %v", tc.args, tc.peers, cfg.Stats, err, tc.want)
		}
	}

	_, err := parseCacheConfig(t, "-stats partitioned", peers)
	if err == nil || !strings.Contains(err.Error(), "-peers") || !strings.Contains(err.Error(), "-stats partitioned") {
		t.Errorf("-stats partitioned with peers: error %v, want one naming -peers and -stats partitioned", err)
	}
}

func parseCacheConfig(t *testing.T, args string, peers []string) (core.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("clicserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts := cli.Register(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cacheConfig(fs, opts, peers)
}
