package vm_test

import (
	"context"
	"sync"
	"testing"

	"faros"
	"faros/internal/core"
	"faros/internal/scenario"
	"faros/internal/vm"
)

// TestSharedBlocksAcrossJobs runs the self-modifying scenarios over and
// over while the rest of the registry runs beside them, every job with
// FAROS attached (the job farosd runs), so machines keep decoding,
// sharing and invalidating blocks over the same bytes at once. Under
// -race it checks that no job writes a shared block; afterwards every
// shared block must still equal a private rebuild of its key bytes.
func TestSharedBlocksAcrossJobs(t *testing.T) {
	detect := func(name string) {
		spec, ok := faros.Scenario(name)
		if !ok {
			t.Errorf("Scenario(%q) not found", name)
			return
		}
		res, err := scenario.RunLiveContext(context.Background(), spec, scenario.Plugins{Faros: &core.Config{}}, nil)
		if err != nil {
			t.Errorf("detect %s: %v", name, err)
			return
		}
		if res.Flagged() != spec.ExpectFlag {
			t.Errorf("%s: flagged = %v, want %v", name, res.Flagged(), spec.ExpectFlag)
		}
		res.Release()
	}

	done := make(chan struct{})
	var selfMod sync.WaitGroup
	for _, name := range []string{"transient_reflective", "bypassuac_injection"} {
		selfMod.Add(1)
		go func() {
			defer selfMod.Done()
			for {
				select {
				case <-done:
					return
				default:
					detect(name)
				}
			}
		}()
	}

	// Two registry jobs at a time, next to the two self-modifying loops,
	// keep memory small.
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, name := range faros.ScenarioNames() {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			detect(name)
		}()
	}
	wg.Wait()
	close(done)
	selfMod.Wait()

	n, err := vm.CheckSharedBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no block was shared")
	}
	t.Logf("%d shared blocks match their private rebuilds", n)
}
