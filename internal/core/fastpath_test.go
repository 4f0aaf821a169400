package core

import (
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/workload"
)

// refConfig strips cfg down to the string-set reference pipeline: no
// interned fast path, no band index. Everything else is shared, so any
// observable difference between the two managers is the fast path's.
func refConfig(cfg Config) Config {
	cfg.NoFastPath = true
	cfg.NoBandIndex = true
	return cfg
}

// TestFastPathMatchesReference is the in-package smoke version of the
// full differential rig (internal/check): a few hundred dep-closure
// requests through the fast and reference pipelines must agree on
// every Result and on the final exported state. The heavier rig covers
// conflicts, pruning, and adversarial streams.
func TestFastPathMatchesReference(t *testing.T) {
	repo := concRepo(t)
	for _, mh := range []*MinHashConfig{nil, DefaultMinHash()} {
		cfg := Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3, MinHash: mh}
		fast := mgr(t, repo, cfg)
		ref := mgr(t, repo, refConfig(cfg))
		if fast.fast == nil {
			t.Fatal("fast path not enabled by default")
		}
		if ref.fast != nil {
			t.Fatal("NoFastPath did not disable the fast path")
		}
		gen := workload.NewDepClosure(repo, 42)
		for i := 0; i < 300; i++ {
			s := gen.Next()
			fr := request(t, fast, s)
			rr := request(t, ref, s)
			if fr != rr {
				t.Fatalf("minhash=%v request %d: fast %+v, reference %+v", mh != nil, i, fr, rr)
			}
		}
		if err := fast.CheckIntegrity(); err != nil {
			t.Fatalf("minhash=%v: %v", mh != nil, err)
		}
		if !reflect.DeepEqual(fast.ExportState(), ref.ExportState()) {
			t.Fatalf("minhash=%v: final states diverge", mh != nil)
		}
	}
}

// TestMergeFallbackEmptyBands pins the empty-bands merge behaviour the
// fast path fixed: when the band index yields no candidate for a
// request (here: totally disjoint from every cached image), the merge
// phase concludes with an insert directly — no redundant full rescan —
// and its trace is indistinguishable from the reference linear scan's:
// same outcome, same prefilter counts, zero candidates.
func TestMergeFallbackEmptyBands(t *testing.T) {
	repo := flatRepo(t, 128, 1)
	ft, rt := &collectTracer{}, &collectTracer{}
	cfg := Config{Alpha: 0.4, MinHash: DefaultMinHash()}
	cfg.Tracer = ft
	fast := mgr(t, repo, cfg)
	cfg.Tracer = rt
	ref := mgr(t, repo, refConfig(cfg))

	reqs := []spec.Spec{
		sp(0, 1, 2, 3, 4, 5, 6, 7),         // insert: cache empty, bands empty
		sp(20, 21, 22, 23, 24, 25, 26, 27), // insert: disjoint, zero band candidates
		sp(40, 41, 42, 43, 44, 45, 46, 47), // insert: still no shared bands
		sp(20, 21, 22, 23, 24, 25, 26, 28), // merge: 7 of 8 shared with image 1 (d=2/9 < α)
	}
	wantOps := []Op{OpInsert, OpInsert, OpInsert, OpMerge}
	for i, s := range reqs {
		fr := request(t, fast, s)
		rr := request(t, ref, s)
		if fr != rr {
			t.Fatalf("request %d: fast %+v, reference %+v", i, fr, rr)
		}
		if fr.Op != wantOps[i] {
			t.Fatalf("request %d: op %s, want %s", i, fr.Op, wantOps[i])
		}
	}
	if len(ft.events) != len(rt.events) {
		t.Fatalf("event counts: fast %d, reference %d", len(ft.events), len(rt.events))
	}
	for i := range ft.events {
		fe, re := ft.events[i], rt.events[i]
		if fe.Op != re.Op || fe.SupersetScanned != re.SupersetScanned ||
			fe.PrefilterAccepted != re.PrefilterAccepted || fe.PrefilterRejected != re.PrefilterRejected ||
			len(fe.Candidates) != len(re.Candidates) {
			t.Fatalf("event %d diverges:\n  fast: %+v\n   ref: %+v", i, fe, re)
		}
	}
	// The empty-bands inserts must not have manufactured candidates.
	for i := 1; i <= 2; i++ {
		if n := len(ft.events[i].Candidates); n != 0 {
			t.Fatalf("disjoint request %d produced %d merge candidates", i, n)
		}
	}
}

// TestOrdSurvivesSnapshotRoundTrip pins the insertion-ordinal
// bookkeeping the fast path's band enumeration depends on for
// stable-sort tie-breaking: after ImportState (and Restore), the
// ordinals must be strictly increasing in image order — CheckIntegrity
// enforces this — and the imported manager must keep answering
// identically to the donor.
func TestOrdSurvivesSnapshotRoundTrip(t *testing.T) {
	repo := concRepo(t)
	cfg := Config{Alpha: 0.6, Capacity: repo.TotalSize() / 3, MinHash: DefaultMinHash()}
	m := mgr(t, repo, cfg)
	gen := workload.NewDepClosure(repo, 7)
	for i := 0; i < 200; i++ {
		request(t, m, gen.Next())
	}

	imported := mgr(t, repo, cfg)
	if err := imported.ImportState(m.ExportState()); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if err := imported.CheckIntegrity(); err != nil {
		t.Fatalf("after ImportState: %v", err)
	}
	restored := mgr(t, repo, cfg)
	if err := restored.Restore(m.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := restored.CheckIntegrity(); err != nil {
		t.Fatalf("after Restore: %v", err)
	}

	// The donor and the imported copy must stay in lockstep on fresh
	// traffic — ordinals reorder deterministically on import, so band
	// tie-breaking must still agree.
	for i := 0; i < 100; i++ {
		s := gen.Next()
		a := request(t, m, s)
		b := request(t, imported, s)
		if a != b {
			t.Fatalf("request %d after import: donor %+v, imported %+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(m.ExportState(), imported.ExportState()) {
		t.Fatal("donor and imported states diverge after further traffic")
	}
}

