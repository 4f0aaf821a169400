package persist

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// Legacy state directories.
//
// testdata/legacy-shards4 was written by the daemon's former
// in-process sharded cache at four shards (capacity 400 bytes,
// alpha 0.8, over testRepo(24, 10)): a checkpoint of the merged shard
// states plus a WAL tail whose records interleave the shards out of
// stamp order and carry strided image IDs (ID mod 4 named the owning
// shard). testdata/legacy-shards1 is the same workload shape at the
// former default of one shard. Each want.json is the live cache's
// merged ExportState at the moment the directory was closed. These
// tests pin that Recover, which now rebuilds one Manager, still loads
// both.

// loadLegacy copies a fixture's state directory into a scratch dir
// (recovery opens a fresh segment there) and returns it with the
// recorded state.
func loadLegacy(t *testing.T, name string) (string, core.ManagerState) {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(src, "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, "state", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(src, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want core.ManagerState
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

func recoverLegacy(t *testing.T, dir string) (*core.Manager, *RecoveryReport) {
	t.Helper()
	st, err := Open(dir, Options{SyncPolicy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := testConfig()
	cfg.Alpha, cfg.Capacity = 0.8, 400
	m, rep, err := st.Recover(testRepo(t, 24, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointSeq == 0 || rep.RecordsReplayed == 0 || rep.RecordsSkipped != 0 || len(rep.Warnings) != 0 {
		t.Fatalf("legacy recovery did not load checkpoint + tail cleanly: %+v", rep)
	}
	return m, rep
}

// TestRecoverLegacyShardedDir recovers the four-shard directory into
// one manager. Images (IDs, specs, stamps, versions, merge counts) and
// the integer counters must equal the recorded merged state exactly;
// ContainerEffSum is a float sum whose order changed with the shards,
// so it gets a relative tolerance. The next insert must allocate an ID
// above every ID the shards handed out.
func TestRecoverLegacyShardedDir(t *testing.T) {
	dir, want := loadLegacy(t, "legacy-shards4")
	m, _ := recoverLegacy(t, dir)
	got := m.ExportState()

	gotImgs, _ := json.Marshal(got.Images)
	wantImgs, _ := json.Marshal(want.Images)
	if string(gotImgs) != string(wantImgs) {
		t.Errorf("recovered images differ:\n got %s\nwant %s", gotImgs, wantImgs)
	}
	var strided bool
	for _, img := range want.Images {
		strided = strided || img.ID%4 != 0
	}
	if !strided {
		t.Fatal("fixture lost its strided IDs; it no longer exercises legacy recovery")
	}
	gs, ws := got.Stats, want.Stats
	if d := math.Abs(gs.ContainerEffSum - ws.ContainerEffSum); d > 1e-9*math.Abs(ws.ContainerEffSum) {
		t.Errorf("ContainerEffSum %v, want %v within 1e-9 relative", gs.ContainerEffSum, ws.ContainerEffSum)
	}
	gs.ContainerEffSum, ws.ContainerEffSum = 0, 0
	if gs != ws {
		t.Errorf("recovered stats %+v, want %+v", gs, ws)
	}
	if got.Clock != want.Clock {
		t.Errorf("recovered clock %d, want %d", got.Clock, want.Clock)
	}
	if err := m.CheckIntegrity(); err != nil {
		t.Fatalf("recovered integrity: %v", err)
	}

	var maxID uint64
	for _, img := range want.Images {
		maxID = max(maxID, img.ID)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("no insert in 200 requests after recovery")
		}
		res, err := m.Request(randSpec(rng, 24))
		if err != nil {
			t.Fatal(err)
		}
		if res.Op != core.OpInsert {
			continue
		}
		if res.ImageID <= maxID {
			t.Fatalf("post-recovery insert got ID %d, not above the legacy maximum %d", res.ImageID, maxID)
		}
		break
	}
	if err := m.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after post-recovery traffic: %v", err)
	}
}

// TestRecoverLegacyDefaultDir recovers the one-shard directory — what
// every daemon wrote by default — and requires an ExportState
// byte-identical to the recorded one.
func TestRecoverLegacyDefaultDir(t *testing.T) {
	dir, want := loadLegacy(t, "legacy-shards1")
	m, _ := recoverLegacy(t, dir)
	if got, want := stateJSON(t, m.ExportState()), stateJSON(t, want); got != want {
		t.Errorf("recovered state != recorded state:\n got %s\nwant %s", got, want)
	}
	if err := m.CheckIntegrity(); err != nil {
		t.Fatalf("recovered integrity: %v", err)
	}
}
