package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestMaintenanceInterval(t *testing.T) {
	cases := []struct {
		requests int
		want     time.Duration
	}{
		{0, time.Minute},        // disabled schedules still clamp up
		{1, time.Minute},        // sub-minute clamps to the floor
		{999, time.Minute},      // just under one pass/minute
		{1000, time.Minute},     // one pass per minute per thousand requests
		{5000, 5 * time.Minute}, // scales linearly
		{60000, time.Hour},      // exactly the ceiling
		{1 << 30, time.Hour},    // absurd schedules clamp to the ceiling
	}
	for _, c := range cases {
		if got := maintenanceInterval(c.requests); got != c.want {
			t.Errorf("maintenanceInterval(%d) = %v, want %v", c.requests, got, c.want)
		}
	}
}

func TestStatsLogLine(t *testing.T) {
	line := statsLogLine(server.StatsResponse{
		Requests:        12,
		Hits:            7,
		Images:          3,
		TotalData:       1 << 30,
		CacheEfficiency: 0.875,
	})
	for _, want := range []string{"requests=12", "hits=7", "images=3", "cached=1.00GB", "cache_eff=0.875"} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line missing %q: %s", want, line)
		}
	}
}

func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	mountPprof(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline -> %d", resp.StatusCode)
	}
	// The index page must list the standard profiles.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ -> %d", resp.StatusCode)
	}
}

// TestShardKnobsRefused pins that the removed in-process sharding
// knobs are refused at startup rather than ignored: the -cache-shards
// flag fails flag parsing (exit 2), and a config file still carrying
// cache_shards fails with the pinned config error (exit 1).
func TestShardKnobsRefused(t *testing.T) {
	bin := buildDaemon(t)
	cfgPath := filepath.Join(t.TempDir(), "site.json")
	if err := os.WriteFile(cfgPath, []byte(`{"cache_shards": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-cache-shards", "4"}, 2, "flag provided but not defined: -cache-shards"},
		{[]string{"-config", cfgPath}, 1, "config: cache_shards was removed; delete the key (scale out with fleet agents instead)"},
	} {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code {
			t.Fatalf("landlordd %v: err %v, want exit status %d\n%s", c.args, err, c.code, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("landlordd %v output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}
