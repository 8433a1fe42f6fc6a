package store

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// entrySeeds are encoded entries and the damage TestReopenQuarantinesDamage
// does to them, plus a bad magic and an unknown version.
func entrySeeds() [][]byte {
	at := time.Unix(0, 1_700_000_000_123_456_789)
	good := encodeEntry(at, []byte(`{"n":1}`))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xFF
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	badVersion := bytes.Clone(good)
	badVersion[4] = version + 1
	return [][]byte{
		good,
		encodeEntry(at, nil),
		encodeEntry(time.Unix(0, -1), []byte(`{"scenario":"njrat","flagged":true}`)),
		flipped,
		good[:len(good)-3],           // torn mid-payload
		good[:10],                    // truncated inside the header
		append(bytes.Clone(good), 0), // trailing garbage
		badMagic,
		badVersion,
		nil,
	}
}

// TestDecodeEntryErrors: every way decodeEntry rejects an entry is a
// *CorruptError carrying the message the store has always logged.
func TestDecodeEntryErrors(t *testing.T) {
	seeds := entrySeeds()
	want := []string{
		"",
		"",
		"",
		"store: payload checksum mismatch",
		"store: payload length 7, have 4 bytes (torn write?)",
		"store: entry truncated: 10 bytes < 53 header",
		"store: payload length 7, have 8 bytes (torn write?)",
		`store: bad magic "XSTO"`,
		"store: unknown entry version 2",
		"store: entry truncated: 0 bytes < 53 header",
	}
	for i, data := range seeds {
		_, _, err := decodeEntry(data)
		if want[i] == "" {
			if err != nil {
				t.Errorf("seed %d: %v", i, err)
			}
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || err.Error() != want[i] || ce.Reason != want[i][len("store: "):] {
			t.Errorf("seed %d: error %v (%T), want *CorruptError %q", i, err, err, want[i])
		}
	}
}

// FuzzDecodeEntry: decodeEntry never panics, rejects only with a
// *CorruptError, and accepts only entries that encodeEntry re-encodes byte
// for byte.
func FuzzDecodeEntry(f *testing.F) {
	for _, s := range entrySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at, payload, err := decodeEntry(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection %v is a %T, want *CorruptError", err, err)
			}
			return
		}
		if re := encodeEntry(at, payload); !bytes.Equal(re, data) {
			t.Fatalf("accepted entry re-encodes differently:\n got %x\nwant %x", re, data)
		}
	})
}
