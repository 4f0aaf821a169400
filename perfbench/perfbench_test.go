package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, against landlordd built from this checkout, and checks that
// every metric BENCHMARK.json names is emitted with its unit and that
// the run's correctness checks pass.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "landlordd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/landlordd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building landlordd: %v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// Short runs still give fleet's 180 requests per second the 1000
	// fixed-rate samples its p99 needs.
	seconds := 20
	if testing.Short() {
		seconds = 15
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]named{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", strconv.Itoa(seconds),
					"--trace", strconv.Itoa(trace), "--root", root, "--landlordd", bin}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line %q: %v", code, lines[len(lines)-1], err)
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestRefusesStaleDaemon checks that a run refuses to start while a
// daemon recorded by an earlier run still serves its address.
func TestRefusesStaleDaemon(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	stop, err := serveOn(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	registry := filepath.Join(t.TempDir(), "daemons.json")
	data, _ := json.Marshal([]registryEntry{{PID: 1 << 30, Addr: addr}})
	if err := os.WriteFile(registry, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkStale(registry); err == nil {
		t.Fatal("a live address from an earlier run was not refused")
	}
	stop()
	if err := checkStale(registry); err != nil {
		t.Fatalf("registry of stopped daemons refused: %v", err)
	}
}

// TestLateSlice checks the late-generator rule: a slice is discarded
// only when more than 1% of its requests were handed over more than
// 10 ms late.
func TestLateSlice(t *testing.T) {
	lag := func(late int) []time.Duration {
		out := make([]time.Duration, 1000)
		for i := range out {
			out[i] = 200 * time.Microsecond
		}
		for i := 0; i < late; i++ {
			out[i] = 20 * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		late    int
		discard bool
	}{{0, false}, {10, false}, {11, true}, {500, true}} {
		if got := sliceLag(lag(c.late)); got.Discarded != c.discard {
			t.Errorf("%d of 1000 requests 20 ms late: discarded %v, want %v (%+v)", c.late, got.Discarded, c.discard, got)
		}
	}
}
