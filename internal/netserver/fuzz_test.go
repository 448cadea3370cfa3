package netserver

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"softlora/internal/core"
)

// FuzzLoadShard fuzzes the shard-container decoder with arbitrary bytes:
// it must never panic, never allocate unboundedly, and — whenever it does
// accept an input — return only records that pass core validation (the
// loader installs accepted containers directly, so acceptance implies
// trust). Valid encodings seed the corpus so mutation explores the framing
// boundaries, not just the magic check; testdata/fuzz/FuzzLoadShard adds
// version-1 containers written by the version-1 encoder.
func FuzzLoadShard(f *testing.F) {
	f.Add(encodeMap(f, kindShard, 5, 3, map[string]core.BiasRecord{}))
	f.Add(encodeMap(f, kindShard, 5, 3, map[string]core.BiasRecord{
		"dev-1": {Mean: -22000, Dev: 35, Min: -22100, Max: -21900, Count: 12, LastSeen: 99.5},
	}))
	f.Add(encodeMap(f, kindShard, 5, 3, map[string]core.BiasRecord{
		"dev-1": {Mean: -22000, Dev: 35, Min: -22100, Max: -21900, Count: 12},
		"dev-2": {Mean: 1500, Dev: 0, Min: 1500, Max: 1500, Count: 1},
		"":      {Count: 0},
	}))
	f.Add(countBomb(snapMagic))
	f.Add(countBomb(snapMagicV1))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejection is not ErrBadSnapshot: %v", err)
			}
			return
		}
		if int(h.count) != len(recs) {
			t.Fatalf("header count %d but %d records decoded", h.count, len(recs))
		}
		for i, r := range recs {
			if verr := r.rec.Validate(); verr != nil {
				t.Fatalf("accepted container holds invalid record %q: %v", r.id, verr)
			}
			if i > 0 && recs[i-1].id >= r.id {
				t.Fatalf("accepted container holds IDs out of order: %q after %q", r.id, recs[i-1].id)
			}
		}
		// An accepted container must re-encode (as version 2, which the
		// next flush writes) and decode to the same records; a version-2
		// container re-encodes to its own bytes.
		out, err := encodeSnapshot(nil, h.kind, h.shard, h.gen, recs)
		if err != nil {
			t.Fatalf("re-encode of accepted container failed: %v", err)
		}
		if _, again, err := decodeSnapshot(out); err != nil || !slices.Equal(again, recs) {
			t.Fatalf("re-encoded container rejected or changed: %v", err)
		}
		if string(data[:len(snapMagic)]) == snapMagic && !bytes.Equal(out, data) {
			t.Fatal("accepted version-2 container does not re-encode to its own bytes")
		}
	})
}

// FuzzLoadFile fuzzes LoadFile's format sniff and both of its decoders
// (container of either version, legacy JSON) with arbitrary file bytes.
// A load must never panic. It either fails with a typed error and leaves
// the database exactly as it was, or installs a database that passes
// core.ValidateDatabase. testdata/fuzz/FuzzLoadFile adds a version-1
// SaveFile container, written by the version-1 encoder, and its
// truncations.
func FuzzLoadFile(f *testing.F) {
	src := New(Config{})
	populate(src, 3, 17)
	src.Enroll("dev-enrolled-only", -21500, 10)
	path := filepath.Join(f.TempDir(), "db.snap")
	if err := src.SaveFile(nil, path); err != nil {
		f.Fatal(err)
	}
	mono, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	legacy := saveBytes(f, src)
	for _, seed := range [][]byte{mono, legacy} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Shards: 4})
		s.Enroll("resident", -21000, 10)
		before := saveBytes(t, s)
		if err := s.LoadFile(nil, path); err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, core.ErrBadDatabase) {
				t.Fatalf("rejection is neither ErrBadSnapshot nor core.ErrBadDatabase: %v", err)
			}
			if after := saveBytes(t, s); !bytes.Equal(before, after) {
				t.Fatalf("rejected load changed the database:\n%s\nwant\n%s", after, before)
			}
			return
		}
		if err := core.ValidateDatabase(toPtr(dump(s))); err != nil {
			t.Fatalf("accepted load installed an invalid database: %v", err)
		}
	})
}

// countBomb is a header-only container that claims 2³¹−1 records under a
// valid trailer: the CRC cannot reject it, only the bytes-present bound.
func countBomb(magic string) []byte {
	c := appendHeader(nil, kindShard, 0, 0, 1<<31-1)
	copy(c, magic)
	return appendTrailer(c)
}

// saveBytes returns the database's legacy JSON encoding.
func saveBytes(t testing.TB, s *NetworkServer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
