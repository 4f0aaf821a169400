// Parallel cache benchmarks: the concurrent request pipeline
// (core.ConcurrentManager) against the single-threaded Manager on the
// two ends of the operational spectrum. "hit-heavy" repeats cached
// specs — every request rides the shared read lock, so throughput
// should scale with cores. "merge-heavy" streams fresh specs — almost
// every request needs the exclusive write lock, so parallel throughput
// is bounded by the serial decision procedure and measures pipeline
// overhead instead. Every variant reports hits/op, so a row's op mix is
// visible next to its cost. EXPERIMENTS.md records the measured table.
package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/workload"
)

const parallelWarmImages = 50

// The serial and parallel variants share one configuration, so the
// comparison isolates the locking strategy.

func BenchmarkManagerSerial(b *testing.B) {
	repo := benchFullRepo(b)
	cfg := core.Config{Alpha: 0.75, Capacity: repo.TotalSize() * 2, MinHash: core.DefaultMinHash()}

	b.Run("hit-heavy", func(b *testing.B) {
		mgr := core.MustNewManager(repo, cfg)
		warm := warmSpecs(b, mgr.Request, 11)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mgr.Request(warm[i%len(warm)])
			if err != nil {
				b.Fatal(err)
			}
			hits += isHit(res)
		}
		reportHits(b, int64(hits))
	})

	b.Run("merge-heavy", func(b *testing.B) {
		mgr := core.MustNewManager(repo, cfg)
		gen := workload.NewDepClosure(repo, 13)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := mgr.Request(gen.Next())
			if err != nil {
				b.Fatal(err)
			}
			hits += isHit(res)
		}
		reportHits(b, int64(hits))
	})
}

// BenchmarkManagerParallel drives the ConcurrentManager the server
// runs: at GOMAXPROCS >= 4 the hit-heavy parallel throughput must be
// at least 2x the serial baseline above, and make bench-guard holds
// its hit path to 0 allocs/op.
func BenchmarkManagerParallel(b *testing.B) {
	repo := benchFullRepo(b)
	cfg := core.Config{Alpha: 0.75, Capacity: repo.TotalSize() * 2, MinHash: core.DefaultMinHash()}

	b.Run("hit-heavy", func(b *testing.B) {
		cm, err := core.NewConcurrent(repo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		warm := warmSpecs(b, cm.Request, 11)
		var worker atomic.Uint64
		var hits atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Distinct stride per goroutine: workers collide on hot
			// images without marching in lockstep.
			off := int(worker.Add(1))
			i, mine := 0, 0
			for pb.Next() {
				i++
				res, err := cm.Request(warm[(off*31+i)%len(warm)])
				if err != nil {
					b.Fatal(err)
				}
				mine += isHit(res)
			}
			hits.Add(int64(mine))
		})
		reportHits(b, hits.Load())
	})

	b.Run("merge-heavy", func(b *testing.B) {
		cm, err := core.NewConcurrent(repo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var seed, hits atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			gen := workload.NewDepClosure(repo, 1000+seed.Add(1))
			mine := 0
			for pb.Next() {
				res, err := cm.Request(gen.Next())
				if err != nil {
					b.Fatal(err)
				}
				mine += isHit(res)
			}
			hits.Add(int64(mine))
		})
		reportHits(b, hits.Load())
	})
}

// isHit is 1 for a hit and 0 otherwise.
func isHit(res core.Result) int {
	if res.Op == core.OpHit {
		return 1
	}
	return 0
}

// reportHits records the share of the b.N timed requests that hit.
func reportHits(b *testing.B, hits int64) {
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// warmSpecs populates the cache with parallelWarmImages images via
// request (inserts) and returns those specs: re-requesting any of them
// is a guaranteed hit.
func warmSpecs(b *testing.B, request func(spec.Spec) (core.Result, error), seed int64) []spec.Spec {
	b.Helper()
	gen := workload.NewDepClosure(benchFullRepo(b), seed)
	warm := make([]spec.Spec, parallelWarmImages)
	for i := range warm {
		warm[i] = gen.Next()
		if _, err := request(warm[i]); err != nil {
			b.Fatal(err)
		}
	}
	return warm
}
