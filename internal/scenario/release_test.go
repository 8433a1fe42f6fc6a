package scenario

import (
	"context"
	"testing"
)

// TestDetectReleaseBytesBound holds a DetectPlugins run + Release, with warm
// pools, under a per-spec allocated-bytes bound: once Release recycles the
// guest memory of the jobs before it, a job allocates little beyond its
// own summary. Without recycling jit_rpad_com allocates ~209 KB and
// process_hollowing ~4.3 MB (fresh frames, shadow pages and block pages
// every time), far past both bounds. transient_reflective and
// bypassuac_injection rewrite code pages they ran, so they also hold the
// VM to reusing a block page when a write invalidates it: dropping the
// page instead costs them ~2.2 MB a run.
func TestDetectReleaseBytesBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of puts under the race detector")
	}
	bounds := map[string]int64{
		"jit_rpad_com":         100_000,
		"process_hollowing":    400_000,
		"transient_reflective": 600_000,
		"bypassuac_injection":  600_000,
	}
	for _, spec := range corpusSpecs() {
		bound, ok := bounds[spec.Name]
		if !ok {
			continue
		}
		detect := func() {
			res, err := RunLiveContext(context.Background(), spec, DetectPlugins(), nil)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			res.Release()
		}
		for i := 0; i < 3; i++ {
			detect() // warm the pools
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				detect()
			}
		})
		got := r.AllocedBytesPerOp()
		t.Logf("%s: %d B/op over %d runs", spec.Name, got, r.N)
		if got > bound {
			t.Errorf("%s: detect + release allocates %d B/op, bound %d", spec.Name, got, bound)
		}
		delete(bounds, spec.Name)
	}
	for name := range bounds {
		t.Errorf("spec %s not in the corpus", name)
	}
}
