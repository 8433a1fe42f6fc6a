package trace

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"faros/internal/faults"
	"faros/internal/record"
)

// encodedTrace builds a valid trace for the given scenario seed (the seed
// varies an event payload so distinct seeds give distinct digests).
func encodedTrace(t *testing.T, seed byte) []byte {
	t.Helper()
	meta := testMeta(t)
	meta.FinalInstr = uint64(seed)
	events := []record.Event{
		{At: 1, Kind: record.EvKeyboard, Data: []byte{seed, seed + 1}},
		{At: 2, Kind: record.EvShutdown},
	}
	return encode(t, meta, events)
}

func TestStorePutGetDedup(t *testing.T) {
	s, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	data := encodedTrace(t, 1)
	digest, created, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !created || digest != Digest(data) {
		t.Fatalf("Put: created=%v digest=%s", created, digest)
	}
	if _, created, err = s.Put(data); err != nil || created {
		t.Fatalf("re-Put: created=%v err=%v, want dedup no-op", created, err)
	}
	got, ok := s.Get(digest)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("Get did not return the stored bytes")
	}
	info, ok := s.Stat(digest)
	if !ok || info.Digest != digest || info.Bytes != int64(len(data)) || info.Events != 2 {
		t.Fatalf("Stat: %+v ok=%v", info, ok)
	}
	if l := s.List(); len(l) != 1 || l[0].Digest != digest {
		t.Fatalf("List: %+v", l)
	}

	// Corrupt and legacy blobs are rejected before touching disk.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	var ce *CorruptError
	if _, _, err := s.Put(bad); !errors.As(err, &ce) {
		t.Fatalf("corrupt Put err = %v, want *CorruptError", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after rejected Put", s.Len())
	}
}

func TestStoreRejectsSpeclessTrace(t *testing.T) {
	s, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data, _, err := EncodeLog(Meta{}, &record.Log{Scenario: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := s.Put(data); !errors.As(err, &ce) {
		t.Fatalf("specless Put err = %v, want *CorruptError", err)
	}
}

// TestStoreReopenIndexes: a restarted store re-indexes surviving entries
// from their headers alone.
func TestStoreReopenIndexes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := byte(0); i < 3; i++ {
		d, _, err := s.Put(encodedTrace(t, i))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	for _, d := range digests {
		info, ok := s2.Stat(d)
		if !ok || info.SpecHash == "" || info.Events != 2 {
			t.Fatalf("reopened Stat(%s): %+v ok=%v", d, info, ok)
		}
	}
}

// TestStoreChaos: under injected write faults every Put either succeeds
// with a readable, digest-faithful entry or fails cleanly; a clean-FS
// reopen never serves a trace whose bytes do not verify.
func TestStoreChaos(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewFSInjector(faults.FSPlan{
		Seed: 0xFA205, TornWrite: 0.15, ShortWrite: 0.1, BitFlip: 0.15,
		SyncErr: 0.1, RenameErr: 0.1, DirSyncErr: 0.1,
	}, nil)
	s, err := OpenStore(StoreConfig{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string][]byte)
	for i := byte(0); i < 24; i++ {
		data := encodedTrace(t, i)
		digest, created, err := s.Put(data)
		if err != nil {
			continue // injected failure, reported cleanly
		}
		if created {
			stored[digest] = data
		}
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	s.Close()

	// Recovery on the real filesystem: whatever survived must verify.
	s2, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, info := range s2.List() {
		data, ok := s2.Get(info.Digest)
		if !ok {
			continue // quarantined between List and Get
		}
		if Digest(data) != info.Digest {
			t.Fatalf("served trace %s has digest %s", info.Digest, Digest(data))
		}
		if _, _, err := DecodeBytes(data); err != nil {
			t.Fatalf("served trace %s does not decode: %v", info.Digest, err)
		}
		if want, ok := stored[info.Digest]; ok && !bytes.Equal(data, want) {
			t.Fatalf("trace %s bytes drifted", info.Digest)
		}
	}
}

// TestStoreConcurrentPutDedup: many goroutines racing the same upload
// produce exactly one created=true and one stored entry (run with -race).
func TestStoreConcurrentPutDedup(t *testing.T) {
	s, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := encodedTrace(t, 9)
	const n = 16
	var wg sync.WaitGroup
	createdCh := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, created, err := s.Put(data)
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			createdCh <- created
		}()
	}
	wg.Wait()
	close(createdCh)
	got := 0
	for c := range createdCh {
		if c {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("%d concurrent Puts reported created=true, want 1", got)
	}
	if s.Len() != 1 || len(s.List()) != 1 {
		t.Fatalf("store holds %d entries after concurrent dedup", s.Len())
	}
}
