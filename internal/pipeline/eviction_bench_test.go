package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"faros/internal/samples"
	"faros/internal/scenario"
)

// BenchmarkCacheEviction drives Submit with a seeded Zipf key stream over
// four times the cache's capacity, through a stub runner, and reports the
// share of submissions the cache answered and the median Submit latency.
// A miss waits for its run to settle before the next submission, so every
// repeated key is a hit or a miss, never a coalesce.
func BenchmarkCacheEviction(b *testing.B) {
	const (
		capacity = 512
		keys     = 4 * capacity
		requests = 100_000
		skew     = 1.1
	)
	reqs := make([]Request, keys)
	for i := range reqs {
		spec := samples.Spinner(uint64(1000 + i))
		h, err := samples.SpecHash(spec)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = Request{Spec: spec, specHash: h}
	}
	runner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		return stubResult(req.Spec.Name), nil
	}
	for _, seed := range []int64{1, 2, 3} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			lat := make([]time.Duration, requests)
			var hits uint64
			for i := 0; i < b.N; i++ {
				p := mustNew(b, Config{Workers: 1, CacheCap: capacity, JobRetention: -1, Runner: runner})
				zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), skew, 1, keys-1)
				for j := range lat {
					req := reqs[zipf.Uint64()]
					start := time.Now()
					job, err := p.Submit(req)
					lat[j] = time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					<-job.Done()
				}
				hits = p.Stats().CacheHits
				p.Close()
			}
			slices.Sort(lat)
			b.ReportMetric(float64(hits)/requests, "hit-ratio")
			b.ReportMetric(float64(lat[requests/2].Nanoseconds()), "p50-submit-ns")
		})
	}
}
