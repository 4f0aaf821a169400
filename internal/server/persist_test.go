package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

func persistentService(t *testing.T, dir string, ckptEvery int) (*Server, *Client, *persist.RecoveryReport) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{SyncPolicy: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, rep, err := NewPersistent(testRepo(t), core.Config{Alpha: 0.6}, store, ckptEvery)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client()), rep
}

// TestPersistentServerSurvivesRestart drives the full durability loop
// over HTTP: requests, an explicit /v1/checkpoint, more requests (WAL
// tail), then a "restart" into the same state directory.
func TestPersistentServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, client, rep := persistentService(t, dir, 0)
	if rep.RecordsReplayed != 0 || rep.CheckpointSeq != 0 {
		t.Fatalf("fresh directory produced a non-empty recovery: %+v", rep)
	}

	if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	info, err := client.Checkpoint()
	if err != nil {
		t.Fatalf("POST /v1/checkpoint: %v", err)
	}
	if info.Images != 1 {
		t.Fatalf("checkpoint covered %d images, want 1", info.Images)
	}
	// Post-checkpoint mutations live only in the WAL tail.
	if _, err := client.Request([]string{"libB/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	before := srv.StatsNow()
	wantSnaps, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store and server over the same directory.
	srv2, client2, rep2 := persistentService(t, dir, 0)
	if rep2.CheckpointSeq != info.Seq {
		t.Errorf("recovered from checkpoint %d, want %d", rep2.CheckpointSeq, info.Seq)
	}
	if rep2.RecordsReplayed == 0 {
		t.Error("post-checkpoint WAL tail was not replayed")
	}
	if got := srv2.StatsNow(); got != before {
		t.Errorf("stats after restart = %+v, want %+v", got, before)
	}
	gotSnaps, err := client2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnaps, wantSnaps) {
		t.Errorf("snapshot after restart:\n got %+v\nwant %+v", gotSnaps, wantSnaps)
	}
}

// TestCheckpointEveryRequests: the server compacts automatically once
// the configured number of requests lands.
func TestCheckpointEveryRequests(t *testing.T) {
	dir := t.TempDir()
	srv, client, _ := persistentService(t, dir, 3)
	for i := 0; i < 3; i++ {
		if _, err := client.Request([]string{"libA/1.0/p"}, true); err != nil {
			t.Fatal(err)
		}
	}
	if since := srv.sinceCkpt.Load(); since != 0 {
		t.Fatalf("sinceCkpt = %d after threshold, want 0 (checkpoint ran)", since)
	}

	// The restart must need no WAL replay: everything is in the checkpoint.
	_, _, rep := persistentService(t, dir, 0)
	if rep.RecordsReplayed != 0 || rep.CheckpointImages != 1 {
		t.Errorf("recovery after auto-checkpoint replayed %d records (images %d), want a pure checkpoint load",
			rep.RecordsReplayed, rep.CheckpointImages)
	}
}

// TestRestoreTriggersCheckpoint: /v1/restore bypasses the WAL, so the
// server closes the durability hole with an immediate checkpoint.
func TestRestoreTriggersCheckpoint(t *testing.T) {
	dirA := t.TempDir()
	_, clientA, _ := persistentService(t, dirA, 0)
	if _, err := clientA.Request([]string{"libA/1.0/p"}, true); err != nil {
		t.Fatal(err)
	}
	snaps, err := clientA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	_, clientB, _ := persistentService(t, dirB, 0)
	if err := clientB.Restore(snaps); err != nil {
		t.Fatal(err)
	}

	// A restart of B recovers the restored images from its checkpoint.
	_, _, rep := persistentService(t, dirB, 0)
	if rep.CheckpointImages != len(snaps) {
		t.Errorf("restart after restore found %d checkpointed images, want %d", rep.CheckpointImages, len(snaps))
	}
}

// TestCheckpointWithoutStore: the endpoint reports 412 when the server
// has no durability configured.
func TestCheckpointWithoutStore(t *testing.T) {
	ts, _ := testService(t, core.Config{Alpha: 0.6})
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status = %d, want 412", resp.StatusCode)
	}
}

// TestRecoveringHandler: the startup placeholder serves 503 with a
// Retry-After hint on every serving route, but liveness stays 200 —
// a daemon replaying its WAL is alive and must not be restarted.
func TestRecoveringHandler(t *testing.T) {
	ts := httptest.NewServer(RecoveringHandler())
	defer ts.Close()
	for _, path := range []string{"/v1/readyz", "/v1/request", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: no Retry-After header", path)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/healthz: status = %d, want 200 (liveness holds through recovery)", resp.StatusCode)
	}
}

// TestClientRetriesDuringRecovery: a GET that first hits the
// recovering placeholder succeeds once the real handler takes over,
// with backoff sleeps instead of user-visible failures. Readiness is
// the route that 503s through recovery (liveness stays 200).
func TestClientRetriesDuringRecovery(t *testing.T) {
	recovering := RecoveringHandler()
	var fails int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if fails < 2 {
			fails++
			recovering.ServeHTTP(w, r)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	var slept []time.Duration
	client.sleep = func(d time.Duration) { slept = append(slept, d) }
	client.SetJitter(func() float64 { return 1 }) // pin to the ceiling for the assertion
	if err := client.Ready(); err != nil {
		t.Fatalf("Ready with retries: %v", err)
	}
	// The placeholder's Retry-After: 1 floors the 100ms/200ms jittered
	// ceilings — the server named its recovery window, so the client
	// waits it out instead of probing inside it.
	want := []time.Duration{time.Second, time.Second}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
}

// TestClientDoesNotRetryPosts: mutating requests must reach the
// service at most once per call.
func TestClientDoesNotRetryPosts(t *testing.T) {
	var posts int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/prune", func(w http.ResponseWriter, r *http.Request) {
		posts++
		writeError(w, http.StatusServiceUnavailable, "recovering")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	client.sleep = func(time.Duration) { t.Error("POST slept for a retry") }
	if _, err := client.Prune(0.5, 1); err == nil {
		t.Fatal("expected error from 503")
	}
	if posts != 1 {
		t.Fatalf("POST attempted %d times, want 1", posts)
	}
}

// TestClientBackoffCap: the exponential backoff saturates at RetryCap.
func TestClientBackoffCap(t *testing.T) {
	c := NewClient("http://example.invalid", nil)
	c.RetryBase = 100 * time.Millisecond
	c.RetryCap = 300 * time.Millisecond
	want := []time.Duration{100, 200, 300, 300}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

// TestClientRetriesExhaust: a persistently-503 server exhausts
// MaxRetries and surfaces the final error.
func TestClientRetriesExhaust(t *testing.T) {
	var gets int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		gets++
		writeError(w, http.StatusServiceUnavailable, "still recovering")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client := NewClient(ts.URL, ts.Client())
	client.MaxRetries = 2
	client.sleep = func(time.Duration) {}
	if _, err := client.Stats(); err == nil {
		t.Fatal("expected error after retries exhausted")
	}
	if gets != 3 {
		t.Fatalf("GET attempted %d times, want 3 (1 + 2 retries)", gets)
	}
}

// TestImagesOrderSurvivesRestart: /v1/images lists images by ID and
// /v1/snapshot by last use, so both read the same before and after a
// restart even though recovery rebuilds the manager's insertion order
// from the checkpoint.
func TestImagesOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, client, _ := persistentService(t, dir, 0)
	// Two disjoint images, then a hit that makes the older one the most
	// recently used.
	for _, pkgs := range [][]string{{"libA/1.0/p"}, {"libB/1.0/p"}, {"libA/1.0/p"}} {
		if _, err := client.Request(pkgs, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := client.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].ID > want[1].ID {
		t.Fatalf("images not listed in ID order: %+v", want)
	}
	wantSnaps, err := client.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	_, client2, _ := persistentService(t, dir, 0)
	got, err := client2.Images()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("images after restart:\n got %+v\nwant %+v", got, want)
	}
	gotSnaps, err := client2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnaps, wantSnaps) {
		t.Errorf("snapshot after restart:\n got %+v\nwant %+v", gotSnaps, wantSnaps)
	}
}
