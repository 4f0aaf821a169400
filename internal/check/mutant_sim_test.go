//go:build landlord_mutants

package check

import (
	"fmt"
	"os"
	"testing"
)

// TestMutantSim runs under -tags landlord_mutants with LANDLORD_MUTANT
// naming one seeded bug in internal/core (see core/mutant_on.go). It
// asserts the harness DETECTS the mutant: the staged suites —
// differential (900 requests), simulation, HA chaos — must report a
// Failure before they run dry, and the fast-path mutants must fall to
// the differential stage. It runs the stages twice and requires the
// two failures to be byte-identical — the reproducibility the printed
// seed promises.
//
// TestMutantsAreDetected drives this from a normal build; the
// MUTANT_FAILURE lines below are its machine-readable channel.
func TestMutantSim(t *testing.T) {
	mutant := os.Getenv("LANDLORD_MUTANT")
	if mutant == "" {
		t.Skip("LANDLORD_MUTANT not set")
	}

	// haStage is the fleet control-plane stage: a short HA chaos run
	// whose first scheduled fault is a lease-holder isolation — the
	// exact scenario the staleepoch mutant breaks. A stale-accepting
	// epoch gate lets the isolated old primary keep acking alongside
	// the newly promoted one, and the round's dual-primary audit fires
	// at the isolation step itself.
	haStage := func() (string, int) {
		cfg := HAChaosDefault(*seedFlag)
		cfg.Steps, cfg.Kills, cfg.Isolations = 120, 1, 1
		rep, f := RunHAChaos(cfg)
		if f != nil {
			return f.Error(), rep.Steps
		}
		return "", rep.Steps
	}

	// detect returns the first failure, the requests issued up to it,
	// and the stage that caught it.
	detect := func() (string, int, string) {
		requests := 0
		// The fleet mutant (staleepoch) is invisible to every
		// single-process stage — only the HA harness spawns masters —
		// so it runs the HA stage first, keeping detection inside the
		// 1000-request budget. Core mutants run it last (they fall to a
		// cheaper stage long before).
		if mutant == "staleepoch" {
			if msg, n := haStage(); msg != "" {
				return msg, requests + n, "hachaos"
			} else {
				requests += n
			}
		}
		// The differential suite runs first: the fast-path mutants
		// (intern, popcount, lshmiss) corrupt only the interned
		// representation, which no single-pipeline oracle can see — they
		// fall to the reference-vs-fast comparison, within its 900
		// requests. The original six mutants fall to the simulation
		// suite.
		for _, cfg := range DifferentialSuite(*seedFlag) {
			rep, f := RunDifferential(cfg)
			requests += rep.Steps
			if f != nil {
				return f.Error(), requests, "differential"
			}
		}
		for _, cfg := range Suite(*seedFlag) {
			rep, f := RunSim(cfg)
			requests += rep.Steps
			if f != nil {
				return f.Error(), requests, "sim"
			}
		}
		if mutant != "staleepoch" {
			if msg, n := haStage(); msg != "" {
				return msg, requests + n, "hachaos"
			} else {
				requests += n
			}
		}
		return "", requests, ""
	}

	first, n1, stage := detect()
	if first == "" {
		t.Fatalf("mutant %q survived %d requests undetected", mutant, n1)
	}
	switch mutant {
	case "intern", "popcount", "lshmiss":
		if stage != "differential" {
			t.Fatalf("fast-path mutant %q escaped the differential stage; caught by %s: %s", mutant, stage, first)
		}
	}
	second, _, _ := detect()
	if first != second {
		t.Fatalf("mutant %q failure is not reproducible under seed %d:\n first: %s\nsecond: %s",
			mutant, *seedFlag, first, second)
	}
	t.Logf("mutant %q detected by the %s stage within %d requests", mutant, stage, n1)
	fmt.Printf("MUTANT_FAILURE %s: %s\n", mutant, first)
}
