package check

import (
	"repro/internal/core"
	"repro/internal/spec"
)

// Differential equivalence rig.
//
// The interned-bitset fast path (core/fastpath.go) re-implements
// Algorithm 1's decision procedure — subset containment, Jaccard
// distances, band-candidate retrieval — on a different representation.
// The claim it makes is strong: byte-identical behaviour to the
// string-set reference pipeline on every request, not approximately
// equal. This rig is the proof machinery: it replays one seeded stream
// through two caches built over the same repository — the reference
// (NoFastPath + NoBandIndex) and the fast path (defaults) — and
// asserts, request by request, that the full Result structs agree, and
// periodically that the exported states are byte-identical and both
// caches pass CheckIntegrity.
//
// The rig is also the primary detector for the fast path's seeded
// mutants (intern, popcount, lshmiss): those bugs corrupt only the
// interned representation, so exact-mode oracles never see them — only
// a reference pipeline running beside the corrupted one can.

// DiffConfig parameterizes one differential run. Everything derives
// from Seed; the same config always produces the same DiffReport or
// the same Failure.
type DiffConfig struct {
	Seed  int64
	Steps int
	// Alpha and CapacityFrac as in SimConfig.
	Alpha        float64
	CapacityFrac float64
	// Conflicts enables the single-version conflict policy.
	Conflicts bool
	// MinHash enables the prefilter and band index on both caches (the
	// fast path then uses the index as its primary candidate source).
	MinHash bool
	// UniformOnly draws every fresh spec from the adversarial
	// uniform-random scheme (no dependency structure, merging defeated).
	UniformOnly bool
	// PruneEvery runs a split pass on both caches every that-many
	// requests (0 disables).
	PruneEvery int
}

// DiffReport summarizes a clean differential run. Runs of the same
// config must report identically.
type DiffReport struct {
	Steps     int
	Stats     core.Stats
	Images    int
	StateHash string
}

// DifferentialSuite returns the canonical differential configurations:
// exact (interned subset/distance arithmetic, no sketches), MinHash
// with and without prune passes (band index as primary candidate
// source), adversarial uniform-random (dense unstructured specs), and
// a conflict-policy run. Together they issue 900 requests — within the
// 1000-request detection budget the mutant self-test enforces for the
// fast-path mutants.
func DifferentialSuite(seed int64) []DiffConfig {
	return []DiffConfig{
		{Seed: seed, Steps: 200, Alpha: 0.6, CapacityFrac: 0.3, PruneEvery: 90},
		{Seed: seed, Steps: 200, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true, PruneEvery: 90},
		{Seed: seed, Steps: 200, Alpha: 0.6, CapacityFrac: 0.3, MinHash: true},
		{Seed: seed, Steps: 150, Alpha: 0.75, MinHash: true, UniformOnly: true},
		{Seed: seed, Steps: 150, Alpha: 0.8, CapacityFrac: 0.5, Conflicts: true, MinHash: true},
	}
}

// RunDifferential executes one differential run: the seeded stream is
// fed to the reference and fast caches in lockstep, Results are
// compared on every request, and exported states plus integrity are
// compared every 64 requests and at the end. It returns a nil Failure
// on a clean run.
func RunDifferential(cfg DiffConfig) (DiffReport, *Failure) {
	repo := SmallRepo(cfg.Seed)
	stream := NewStream(repo, cfg.Seed+1)
	if cfg.UniformOnly {
		stream.UniformProb = 1
	}
	capacity := simCapacity(repo, cfg.CapacityFrac)

	fastCfg := core.Config{Alpha: cfg.Alpha, Capacity: capacity}
	if cfg.Conflicts {
		fastCfg.Conflicts = spec.NewSingleVersionPolicy(repo)
	}
	if cfg.MinHash {
		fastCfg.MinHash = core.DefaultMinHash()
	}
	refCfg := fastCfg
	refCfg.NoFastPath = true
	refCfg.NoBandIndex = true

	var rep DiffReport
	ref, err := core.NewManager(repo, refCfg)
	if err != nil {
		return rep, failf(cfg.Seed, 0, "reference manager: %v", err)
	}
	fast, err := core.NewManager(repo, fastCfg)
	if err != nil {
		return rep, failf(cfg.Seed, 0, "fast manager: %v", err)
	}

	audit := func(step int) *Failure {
		if err := ref.CheckIntegrity(); err != nil {
			return failf(cfg.Seed, step, "reference integrity: %v", err)
		}
		if err := fast.CheckIntegrity(); err != nil {
			return failf(cfg.Seed, step, "fast-path integrity: %v", err)
		}
		if err := statesEqual(ref.ExportState(), fast.ExportState()); err != nil {
			return failf(cfg.Seed, step, "fast-path state diverges from reference: %v", err)
		}
		return nil
	}

	for step := 0; step < cfg.Steps; step++ {
		if cfg.PruneEvery > 0 && step > 0 && step%cfg.PruneEvery == 0 {
			rs, err := ref.Prune(0.5, 2)
			if err != nil {
				return rep, failf(cfg.Seed, step, "reference prune: %v", err)
			}
			fs, err := fast.Prune(0.5, 2)
			if err != nil {
				return rep, failf(cfg.Seed, step, "fast prune: %v", err)
			}
			if len(rs) != len(fs) {
				return rep, failf(cfg.Seed, step, "prune split %d images on the fast path, %d on the reference", len(fs), len(rs))
			}
		}
		s := stream.Next()
		rr, err := ref.Request(s)
		if err != nil {
			return rep, failf(cfg.Seed, step, "reference request: %v", err)
		}
		fr, err := fast.Request(s)
		if err != nil {
			return rep, failf(cfg.Seed, step, "fast request: %v", err)
		}
		if rr != fr {
			return rep, failf(cfg.Seed, step, "fast path answered %+v, reference answered %+v (spec of %d packages)", fr, rr, s.Len())
		}
		rep.Steps++
		if (step+1)%64 == 0 {
			if f := audit(step); f != nil {
				return rep, f
			}
		}
	}

	if f := audit(cfg.Steps); f != nil {
		return rep, f
	}
	if rs, fs := ref.Stats(), fast.Stats(); rs != fs {
		return rep, failf(cfg.Seed, cfg.Steps, "fast-path stats %+v diverge from reference %+v", fs, rs)
	}
	st := fast.ExportState()
	rep.Stats = st.Stats
	rep.Images = len(st.Images)
	rep.StateHash = StateHash(st)
	return rep, nil
}
