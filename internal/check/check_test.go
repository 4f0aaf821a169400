package check

import (
	"flag"
	"reflect"
	"testing"
)

// seedFlag reproduces a reported failure: every Failure's Error()
// names the exact command. The default matches the CI run.
var seedFlag = flag.Int64("seed", 1, "simulation seed (failures print the seed that reproduces them)")

// TestCheckReplay is the reproduction entry point: a failure anywhere
// in the harness prints `go test ./internal/check -run TestCheckReplay
// -seed=N`, and this test re-runs the full schedule — in-memory suite,
// the persistent disk-fault chaos run, the network-fault chaos run, and
// the fleet chaos run — under that seed.
func TestCheckReplay(t *testing.T) {
	seed := *seedFlag
	for _, cfg := range Suite(seed) {
		if _, f := RunSim(cfg); f != nil {
			t.Fatal(f)
		}
	}
	if _, f := RunSim(ChaosConfig(seed, t.TempDir())); f != nil {
		t.Fatal(f)
	}
	if _, f := RunNetChaos(NetChaosDefault(seed, t.TempDir())); f != nil {
		t.Fatal(f)
	}
	if _, f := RunFleetChaos(FleetChaosDefault(seed)); f != nil {
		t.Fatal(f)
	}
}

// TestNetChaos is the end-to-end network chaos run on its own: a real
// HTTP server over a persistent store, a client injecting seeded
// resets/truncations/latency/blackholes, disk faults and crash cycles
// underneath. The audit inside RunNetChaos proves every acked request
// is served as a hit after every recovery, sheds never mutate, and a
// degraded server refuses non-durable acks.
func TestNetChaos(t *testing.T) {
	rep, f := RunNetChaos(NetChaosDefault(*seedFlag, t.TempDir()))
	if f != nil {
		t.Fatal(f)
	}
	if rep.Acked == 0 {
		t.Fatal("netchaos run acked nothing; the harness is not exercising the serving path")
	}
	if rep.Crashes == 0 {
		t.Fatal("netchaos run never crashed; the audit never ran")
	}
	t.Logf("netchaos: %d steps, %d acked, %d sheds, %d degraded, %d circuit-fast, %d net errors (%d injected), %d disk faults, %d crashes, %d heals",
		rep.Steps, rep.Acked, rep.Sheds, rep.Degraded, rep.CircuitFast,
		rep.NetErrors, rep.NetInjected, rep.DiskInjected, rep.Crashes, rep.Heals)
}

// TestSimDeterministic pins the bit-for-bit reproducibility contract:
// two runs of the same config — including injected faults, crashes and
// recoveries — produce identical reports, down to the state hash.
func TestSimDeterministic(t *testing.T) {
	for _, cfg := range []SimConfig{
		{Seed: *seedFlag, Steps: 400, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: *seedFlag, Steps: 400, Alpha: 0.6, CapacityFrac: 0.3,
			CheckpointEvery: 50, PruneEvery: 90, CrashEvery: 100, Faults: true},
	} {
		run := func(c SimConfig) SimReport {
			if c.CrashEvery > 0 {
				c.Dir = t.TempDir() // fresh dir per run: state must come from the seed, not the disk
			}
			rep, f := RunSim(c)
			if f != nil {
				t.Fatal(f)
			}
			return rep
		}
		first, second := run(cfg), run(cfg)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("two runs of seed %d diverge:\n first: %+v\nsecond: %+v", cfg.Seed, first, second)
		}
	}
}

// TestStreamDeterministic pins the generators: the same seed yields
// the same repository and the same request sequence.
func TestStreamDeterministic(t *testing.T) {
	repo1, repo2 := SmallRepo(*seedFlag), SmallRepo(*seedFlag)
	if repo1.Len() != repo2.Len() {
		t.Fatalf("repos differ: %d vs %d packages", repo1.Len(), repo2.Len())
	}
	s1, s2 := NewStream(repo1, *seedFlag), NewStream(repo2, *seedFlag)
	for i := 0; i < 2000; i++ {
		a, b := s1.Next(), s2.Next()
		if !a.Equal(b) {
			t.Fatalf("streams diverge at request %d", i)
		}
	}
}

// TestStreamMixesSchemes checks the generator produces all three
// request classes — without them the harness would silently stop
// exercising the hit path or the adversarial uniform scheme.
func TestStreamMixesSchemes(t *testing.T) {
	repo := SmallRepo(*seedFlag)
	s := NewStream(repo, *seedFlag)
	seen := make(map[string]int)
	for i := 0; i < 1000; i++ {
		seen[s.Next().String()]++
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n - 1
		}
	}
	if repeats < 100 {
		t.Errorf("only %d repeated requests in 1000; the repeat scheme is not driving the hit path", repeats)
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct specs in 1000 requests", len(seen))
	}
}

// Metamorphic relations (see metamorphic.go for the arguments why
// each holds only under unlimited capacity).

func TestAlphaMonotonicity(t *testing.T) {
	if f := AlphaMonotonicity(*seedFlag, 500, []float64{0, 0.2, 0.4, 0.6, 0.8, 1}); f != nil {
		t.Fatal(f)
	}
}

func TestHitPermutationInvariance(t *testing.T) {
	if f := HitPermutationInvariance(*seedFlag, 500, 0.6); f != nil {
		t.Fatal(f)
	}
}

func TestDegenerateLRU(t *testing.T) {
	if f := DegenerateLRU(*seedFlag, 500, 0.3); f != nil {
		t.Fatal(f)
	}
}

func TestDegenerateGlob(t *testing.T) {
	if f := DegenerateGlob(*seedFlag, 500); f != nil {
		t.Fatal(f)
	}
}

// TestCheckSoak is the acceptance soak: 50k requests across 8
// goroutines against a persistent store with injected faults, run
// under -race in CI. -short scales it down for the inner loop.
func TestCheckSoak(t *testing.T) {
	cfg := SoakConfig{
		Seed: *seedFlag, Requests: 50000, Workers: 8,
		Alpha: 0.6, CapacityFrac: 0.3, Conflicts: false,
		Dir: t.TempDir(), Faults: true, MaintainEvery: 200,
	}
	if testing.Short() {
		cfg.Requests = 8000
	}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d requests, %d hits, %d merges, %d images, %d faults injected",
		rep.Stats.Requests, rep.Stats.Hits, rep.Stats.Merges, rep.Images, rep.Injected)
}

// TestSoakMemoryOnly soaks the pure in-memory concurrent path (no
// store in the hook chain), where read-path hits take the shared lock.
func TestSoakMemoryOnly(t *testing.T) {
	cfg := SoakConfig{
		Seed: *seedFlag + 7, Requests: 20000, Workers: 8,
		Alpha: 0.8, CapacityFrac: 0.5, MaintainEvery: 300,
	}
	if testing.Short() {
		cfg.Requests = 4000
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatal(err)
	}
}
