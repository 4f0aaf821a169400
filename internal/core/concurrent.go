package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pkggraph"
	"repro/internal/similarity"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// ConcurrentManager is the multi-core front of the cache: a Manager
// made safe for concurrent use by many goroutines, with *hits* — the
// overwhelmingly common case in the paper's operational zone — served
// under a shared read lock so they scale across cores, and only
// merge/insert/evict/prune falling back to the exclusive write lock.
//
// Lock hierarchy (acquire strictly in this order, release in reverse):
//
//  1. mu (RWMutex): guards the cache *structure* — the image set,
//     image specs/sizes/signatures, the byte total. Readers may scan;
//     only writers add, remove, or resize images.
//  2. hitMu: serializes the tiny mutable remainder of a hit — the
//     logical clock, the stats counters, the image's LRU stamp and
//     hot-set window, and the commit-hook call — among concurrent
//     read-lock holders. Write-lock holders never take hitMu: the
//     write lock already excludes every reader.
//  3. Whatever lock the CommitHook takes internally (the persist
//     store's own mutex).
//
// Linearization-order guarantee: every request is stamped with a
// unique logical clock value while holding either hitMu (hits) or the
// write lock (merges/inserts), and the commit hook is invoked before
// that lock is released. Hook invocations are therefore totally
// ordered and the WAL observes mutations in exactly clock order, so
// single-threaded replay of the log (internal/persist recovery)
// reconstructs the concurrent execution byte for byte — including the
// order-sensitive float accumulation in Stats.ContainerEffSum. The
// oracle-equivalence harness (concurrent_test.go) asserts this.
//
// Tracers configured on a ConcurrentManager must be safe for
// concurrent use (telemetry.Ring, JSONLSink, and registry-backed
// tracers all are). Trace events are emitted outside hitMu and may
// arrive at the sink slightly out of Seq order.
type ConcurrentManager struct {
	mu    sync.RWMutex
	hitMu sync.Mutex
	m     *Manager

	// Contention accounting, always on (atomics are ~free next to a
	// cache scan): fast-path hits served under the read lock, and
	// write-lock acquisitions (slow-path requests plus maintenance).
	readHits  atomic.Int64
	writeAcqs atomic.Int64

	// Optional lock-wait histograms (seconds), set via
	// SetLockWaitMetrics; nil skips the clock reads.
	readWait  *telemetry.Histogram
	writeWait *telemetry.Histogram
}

// NewConcurrent validates cfg and creates an empty concurrent manager
// over repo.
func NewConcurrent(repo *pkggraph.Repo, cfg Config) (*ConcurrentManager, error) {
	m, err := NewManager(repo, cfg)
	if err != nil {
		return nil, err
	}
	return &ConcurrentManager{m: m}, nil
}

// Concurrent wraps an existing single-threaded Manager (typically one
// just rebuilt by crash recovery, before any goroutine touches it).
// The Manager must not be used directly afterwards except through
// WithExclusive.
func Concurrent(m *Manager) *ConcurrentManager {
	return &ConcurrentManager{m: m}
}

// SetLockWaitMetrics installs histograms observing the time spent
// waiting to acquire the read lock (fast path) and the write lock
// (slow path and maintenance). Call before serving; not safe to call
// concurrently with requests.
func (c *ConcurrentManager) SetLockWaitMetrics(read, write *telemetry.Histogram) {
	c.readWait = read
	c.writeWait = write
}

// ReadHits returns how many requests were served entirely under the
// read lock.
func (c *ConcurrentManager) ReadHits() int64 { return c.readHits.Load() }

// WriteLockAcquisitions returns how many times the exclusive write
// lock has been taken (slow-path requests, prunes, checkpoints,
// restores). Read-only endpoints riding the read path leave it
// untouched — the regression tests assert exactly that.
func (c *ConcurrentManager) WriteLockAcquisitions() int64 { return c.writeAcqs.Load() }

// rlock acquires the read lock, timing the wait when metrics are on.
func (c *ConcurrentManager) rlock() {
	if c.readWait != nil {
		start := time.Now()
		c.mu.RLock()
		c.readWait.Observe(time.Since(start).Seconds())
		return
	}
	c.mu.RLock()
}

// lock acquires the write lock, timing the wait when metrics are on.
func (c *ConcurrentManager) lock() {
	if c.writeWait != nil {
		start := time.Now()
		c.mu.Lock()
		c.writeWait.Observe(time.Since(start).Seconds())
	} else {
		c.mu.Lock()
	}
	c.writeAcqs.Add(1)
}

// Request runs Algorithm 1 for specification s, concurrently safe.
//
// Fast path: under the read lock, scan for an image with s ⊆ i. A hit
// only refreshes LRU/stats/hot-set state, so it commits under hitMu
// without ever taking the write lock — concurrent hits on a multi-core
// head node proceed in parallel through the scan, which dominates the
// cost. Miss: fall back to the write lock and re-run the full
// algorithm (the superset check must be re-decided under exclusion —
// another writer may have inserted a satisfying image in the window
// between the two locks).
func (c *ConcurrentManager) Request(s spec.Spec) (Result, error) {
	return c.RequestCtx(context.Background(), s)
}

// RequestCtx is Request with deadline/cancellation awareness: the
// context is checked before the fast path, before queueing on the
// write lock, and again immediately after acquiring it — an expired
// request aborts *before* mutating anything, never mid-merge. Once the
// slow-path algorithm starts, it runs to completion (a half-applied
// merge is worse than a late one); expiry between the WAL append and
// the response is the client's problem, which is exactly why the
// durability audit counts only acked responses.
func (c *ConcurrentManager) RequestCtx(ctx context.Context, s spec.Spec) (Result, error) {
	if s.Empty() {
		return Result{}, errEmptySpec()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	m := c.m
	// Span tracing rides the context: the server attaches the request's
	// ActiveTrace and every layer below records into it. A nil trace
	// (untraced callers, benchmarks) costs one branch per span site.
	at := telemetry.TraceFromContext(ctx)
	// Pure pre-computation: no locks needed, Repo and Spec are
	// immutable. The fast path defers signing entirely — a hit never
	// needs it, and the slow path (RequestTraced) signs with its own
	// scratch. Scratch is drawn per request: concurrent read-lock
	// holders scan simultaneously and must not share buffers.
	var sig similarity.Signature
	var sc *scratch
	if m.fast != nil {
		sc = m.fast.get(s)
		defer m.fast.put(sc)
	} else {
		sig = m.sign(s)
	}
	reqBytes := s.Size(m.repo)

	var start time.Time
	var ev *telemetry.Event
	if m.cfg.Tracer != nil {
		start = time.Now()
		ev = &telemetry.Event{SpecPackages: s.Len(), RequestBytes: reqBytes, TraceID: at.TraceID()}
	}

	rlSpan := at.Begin(telemetry.StageLockWaitRead, at.Root())
	c.rlock()
	at.End(rlSpan)
	scanSpan := at.Begin(telemetry.StageSupersetScan, at.Root())
	var img *Image
	if sc != nil {
		img = m.findSupersetFast(s, sc, ev)
	} else {
		img = m.findSuperset(s, sig, ev)
	}
	if ev != nil {
		at.AttrInt(scanSpan, "scanned", int64(ev.SupersetScanned))
	}
	at.End(scanSpan)
	if img != nil {
		hitSpan := at.Begin(telemetry.StageHit, at.Root())
		c.hitMu.Lock()
		m.clock++
		clock := m.clock
		img.lastUse = clock
		img.served(s)
		m.stats.Requests++
		m.stats.Hits++
		m.stats.RequestedBytes += reqBytes
		res := Result{
			Seq:          clock,
			Op:           OpHit,
			ImageID:      img.ID,
			ImageVersion: img.Version,
			ImageSize:    img.Size,
			RequestBytes: reqBytes,
		}
		m.stats.ContainerEffSum += res.ContainerEfficiency()
		// The hook must run before hitMu is released so the WAL sees
		// touches in clock order (see the linearization guarantee above).
		ws := at.Begin(telemetry.StageWALAppend, hitSpan)
		m.commit(Mutation{Kind: MutTouch, ImageID: img.ID, LastUse: clock, RequestBytes: reqBytes})
		at.End(ws)
		c.hitMu.Unlock()
		at.EndInt(hitSpan, "image_id", int64(img.ID))
		c.readHits.Add(1)
		if ev != nil {
			ev.Seq = res.Seq
			m.trace(ev, res, start)
		}
		c.mu.RUnlock()
		return res, nil
	}
	c.mu.RUnlock()

	// Slow path: the full algorithm under exclusion. Reuses the
	// single-threaded Request verbatim — including its own phase-1
	// rescan — so the decision procedure has exactly one
	// implementation. The second ctx check catches deadlines that
	// expired while this request queued behind the write lock — the
	// common shape under overload, and the window where aborting still
	// costs nothing.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	wlSpan := at.Begin(telemetry.StageLockWaitWrite, at.Root())
	c.lock()
	at.End(wlSpan)
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return Result{}, err
	}
	res, err := m.RequestTraced(s, at)
	c.mu.Unlock()
	return res, err
}

// PeekHit answers "would this spec hit?" with zero mutation: no clock
// bump, no stats, no LRU touch, no commit-hook call. It exists for
// degraded-mode serving — when the WAL is broken the server may still
// answer superset hits from memory, but it must not generate mutations
// it cannot make durable. The returned Result carries Seq 0 since the
// request was never linearized into the mutation order.
func (c *ConcurrentManager) PeekHit(s spec.Spec) (Result, bool) {
	if s.Empty() {
		return Result{}, false
	}
	m := c.m
	reqBytes := s.Size(m.repo)
	var img *Image
	c.rlock()
	defer c.mu.RUnlock()
	if m.fast != nil {
		sc := m.fast.get(s)
		img = m.findSupersetFast(s, sc, nil)
		m.fast.put(sc)
	} else {
		img = m.findSuperset(s, m.sign(s), nil)
	}
	if img == nil {
		return Result{}, false
	}
	return Result{
		Op:           OpHit,
		ImageID:      img.ID,
		ImageVersion: img.Version,
		ImageSize:    img.Size,
		RequestBytes: reqBytes,
	}, true
}

// WithShared runs fn with the cache quiescent for reading: the read
// lock plus hitMu, so the image set, stats, clock, and LRU stamps are
// all stable for the duration. Concurrent hits wait (briefly — keep fn
// short); merges and inserts wait on the read lock.
func (c *ConcurrentManager) WithShared(fn func(m *Manager)) {
	c.rlock()
	c.hitMu.Lock()
	defer func() {
		c.hitMu.Unlock()
		c.mu.RUnlock()
	}()
	fn(c.m)
}

// WithExclusive runs fn as the sole user of the underlying Manager —
// the escape hatch for maintenance that must see and mutate a frozen
// cache: prune passes, checkpoints (export state + WAL rotation with
// no mutation in between), restores. fn must not retain m.
func (c *ConcurrentManager) WithExclusive(fn func(m *Manager)) {
	c.lock()
	defer c.mu.Unlock()
	fn(c.m)
}

// Stats returns a copy of the accumulated counters.
func (c *ConcurrentManager) Stats() Stats {
	c.rlock()
	c.hitMu.Lock()
	st := c.m.stats
	c.hitMu.Unlock()
	c.mu.RUnlock()
	return st
}

// Len returns the number of cached images.
func (c *ConcurrentManager) Len() int {
	c.rlock()
	defer c.mu.RUnlock()
	return c.m.Len()
}

// TotalData returns the summed size of all cached images.
func (c *ConcurrentManager) TotalData() int64 {
	c.rlock()
	defer c.mu.RUnlock()
	return c.m.TotalData()
}

// UniqueData returns the size of the union of all cached images'
// package sets.
func (c *ConcurrentManager) UniqueData() int64 {
	c.rlock()
	defer c.mu.RUnlock()
	return c.m.UniqueData()
}

// CacheEfficiency returns UniqueData/TotalData.
func (c *ConcurrentManager) CacheEfficiency() float64 {
	c.rlock()
	defer c.mu.RUnlock()
	return c.m.CacheEfficiency()
}

// Alpha returns the configured merge threshold.
func (c *ConcurrentManager) Alpha() float64 { return c.m.Alpha() }

// Snapshot captures every cached image (see Manager.Snapshot).
func (c *ConcurrentManager) Snapshot() []ImageSnapshot {
	var snaps []ImageSnapshot
	c.WithShared(func(m *Manager) { snaps = m.Snapshot() })
	return snaps
}

// ExportState captures the full manager state for checkpointing. For a
// checkpoint that must stay consistent with the WAL, use WithExclusive
// and run the export and the log rotation under the same critical
// section.
func (c *ConcurrentManager) ExportState() ManagerState {
	var st ManagerState
	c.WithShared(func(m *Manager) { st = m.ExportState() })
	return st
}

// Images returns image rows for read-only listings. Unlike
// Manager.Images, the returned values are copies: live *Image fields
// mutate under locks the caller does not hold.
func (c *ConcurrentManager) Images() []Image {
	c.rlock()
	c.hitMu.Lock()
	defer func() {
		c.hitMu.Unlock()
		c.mu.RUnlock()
	}()
	out := make([]Image, 0, len(c.m.byID))
	for _, img := range c.m.images {
		if img != nil {
			out = append(out, *img)
		}
	}
	return out
}

// Prune runs a split pass under the write lock (see Manager.Prune).
func (c *ConcurrentManager) Prune(maxUtilization float64, minServed int) ([]SplitResult, error) {
	var out []SplitResult
	var err error
	c.WithExclusive(func(m *Manager) { out, err = m.Prune(maxUtilization, minServed) })
	return out, err
}

// Restore loads a snapshot into an empty cache (see Manager.Restore).
func (c *ConcurrentManager) Restore(snaps []ImageSnapshot) error {
	var err error
	c.WithExclusive(func(m *Manager) { err = m.Restore(snaps) })
	return err
}

// Tracer returns the configured request tracer (nil when disabled).
func (c *ConcurrentManager) Tracer() telemetry.Tracer { return c.m.Tracer() }
