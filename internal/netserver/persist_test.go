package netserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"softlora/internal/core"
	"softlora/internal/vfs"
)

// populate enrolls and exercises n devices so records carry real
// statistics and LastSeen stamps.
func populate(s *NetworkServer, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev-%05d", i)
		base := -25000 + rng.Float64()*8000
		s.Enroll(id, base, core.DefaultEnrollFrames)
		s.Check(PHYObservation{
			DeviceID:    id,
			FBHz:        base + rng.NormFloat64()*40,
			ArrivalTime: 100 + float64(i),
		})
	}
}

// dump copies the full database for equality comparison.
func dump(s *NetworkServer) map[string]core.BiasRecord {
	var recs []snapRecord
	for i := range s.shards {
		recs = s.snapshotShard(i, recs)
	}
	return recordMap(recs)
}

// recordMap indexes decoded or snapshotted records by ID.
func recordMap(recs []snapRecord) map[string]core.BiasRecord {
	out := make(map[string]core.BiasRecord, len(recs))
	for _, r := range recs {
		out[r.id] = r.rec
	}
	return out
}

// encodeMap encodes records as a container, as a flush would.
func encodeMap(t testing.TB, kind, shard uint32, gen uint64, records map[string]core.BiasRecord) []byte {
	t.Helper()
	recs := make([]snapRecord, 0, len(records))
	for id, rec := range records {
		recs = append(recs, snapRecord{id: id, rec: rec})
	}
	sortRecords(recs)
	data, err := encodeSnapshot(nil, kind, shard, gen, recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func equalDB(t *testing.T, want, got map[string]core.BiasRecord, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d devices, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: device %s missing", label, id)
		}
		if w != g {
			t.Fatalf("%s: device %s = %+v, want %+v", label, id, g, w)
		}
	}
}

func TestSnapshotContainerRoundTrip(t *testing.T) {
	records := map[string]core.BiasRecord{
		"a": {Mean: -22000, Dev: 35, Min: -22100, Max: -21900, Count: 17, LastSeen: 1234.5},
		"b": {Mean: 4000, Dev: 0, Min: 4000, Max: 4000, Count: 1},
	}
	data := encodeMap(t, kindShard, 7, 42, records)
	if string(data[:8]) != snapMagic {
		t.Fatalf("magic = %q, want %q", data[:8], snapMagic)
	}
	if want := headerLen + 2*minFrameV2 + 2 + 4; len(data) != want {
		t.Fatalf("container is %d bytes, want %d", len(data), want)
	}
	h, recs, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.kind != kindShard || h.shard != 7 || h.gen != 42 || int(h.count) != len(records) {
		t.Fatalf("header = %+v", h)
	}
	got := recordMap(recs)
	for id, w := range records {
		if got[id] != w {
			t.Errorf("record %s = %+v, want %+v", id, got[id], w)
		}
	}
	// Equal states must encode to equal bytes (the flush determinism the
	// crash tests lean on).
	if again := encodeMap(t, kindShard, 7, 42, records); !bytes.Equal(data, again) {
		t.Error("encoding is not deterministic")
	}
}

func TestSnapshotContainerRejectsDamage(t *testing.T) {
	records := map[string]core.BiasRecord{
		"dev-1": {Mean: -22000, Dev: 35, Min: -22100, Max: -21900, Count: 9, LastSeen: 50},
		"dev-2": {Mean: -21000, Dev: 12, Min: -21050, Max: -20950, Count: 4, LastSeen: 60},
	}
	// A version-1 shard file, written by the version-1 encoder, must stay
	// as well guarded as a version-2 one.
	v1, err := os.ReadFile(filepath.Join("testdata", "v1dir", shardFileName(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{encodeMap(t, kindShard, 3, 9, records), v1} {
		if _, _, err := decodeSnapshot(data); err != nil {
			t.Fatalf("%s container rejected intact: %v", data[:8], err)
		}
		// Truncation at every byte boundary must be rejected — a torn
		// write can stop anywhere.
		for n := 0; n < len(data); n++ {
			if _, _, err := decodeSnapshot(data[:n]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes silently accepted", data[:8], n, len(data))
			}
		}
		// Any single flipped bit must be rejected.
		for i := 0; i < len(data); i++ {
			for bit := 0; bit < 8; bit++ {
				cp := make([]byte, len(data))
				copy(cp, data)
				cp[i] ^= 1 << bit
				if _, _, err := decodeSnapshot(cp); err == nil {
					t.Fatalf("%s: bit flip at byte %d bit %d silently accepted", data[:8], i, bit)
				}
			}
		}
	}
}

func TestDecodeRejectsCountBeyondBytesPresent(t *testing.T) {
	// Regression: a header-only container claiming 2³¹−1 records under a
	// recomputed trailer passed the CRC, and the decoder presized its
	// output by the claimed count before reading a record — enough to get
	// the process killed for memory. The count is now bounded by the
	// bytes present.
	for _, magic := range []string{snapMagicV1, snapMagic} {
		data := countBomb(magic)
		if len(data) != 32 {
			t.Fatalf("count bomb is %d bytes, want 32", len(data))
		}
		// Rejected for its count, before anything is sized by it.
		if _, _, err := decodeSnapshot(data); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "count") {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot naming the count", magic, err)
		}
		path := filepath.Join(t.TempDir(), "bomb.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := New(Config{}).LoadFile(nil, path); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: LoadFile err = %v, want ErrBadSnapshot", magic, err)
		}
	}
}

func TestDecodeRejectsCraftedContainers(t *testing.T) {
	// Containers whose every CRC is right, so only the decoder's own
	// checks stand between them and the database.
	rec := core.BiasRecord{Mean: -22000, Dev: 35, Min: -22100, Max: -21900, Count: 12, LastSeen: 50}
	craft := func(count uint32, recs ...snapRecord) []byte {
		c := appendHeader(nil, kindShard, 0, 1, count)
		for i := range recs {
			c = appendRecord(c, &recs[i])
		}
		return appendTrailer(c)
	}
	a, b := snapRecord{id: "a", rec: rec}, snapRecord{id: "b", rec: rec}
	nan, inverted := a, a
	nan.rec.Dev = math.NaN()
	inverted.rec.Min, inverted.rec.Max = 1, -1
	// A flipped ID byte under a recomputed trailer: only the record's
	// own CRC catches it, in either version.
	v1, err := os.ReadFile(filepath.Join("testdata", "v1dir", shardFileName(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	flipID := func(c []byte) []byte {
		c = bytes.Clone(c)
		c[headerLen+4] ^= 1
		return appendTrailer(c[:len(c)-4])
	}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"duplicate id", "duplicate", craft(2, a, a)},
		{"ids out of order", "out of order", craft(2, b, a)},
		{"count short of records", "trailing bytes", craft(1, a, b)},
		{"count beyond records", "count 3", craft(3, a, b)},
		{"non-finite field", "not finite", craft(1, nan)},
		{"inverted range", "exceeds max_hz", craft(1, inverted)},
		{"id over the limit", "bad id length", craft(1, snapRecord{id: strings.Repeat("x", maxIDLen+1)})},
		{"record checksum", "checksum mismatch", flipID(craft(1, a))},
		{"version-1 record checksum", "checksum mismatch", flipID(v1)},
	} {
		_, _, err := decodeSnapshot(tc.data)
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot naming %q", tc.name, err, tc.want)
		}
	}
	if _, recs, err := decodeSnapshot(craft(2, a, b)); err != nil || len(recs) != 2 {
		t.Fatalf("well-formed crafted container: %d records, err %v", len(recs), err)
	}
}

func TestDecodeAcceptsSmallestFrames(t *testing.T) {
	// The count bound must never reject a valid container: records of
	// the smallest frame each version allows still decode.
	v2 := appendHeader(nil, kindShard, 0, 1, 1)
	v2 = appendTrailer(appendRecord(v2, &snapRecord{}))
	v1 := appendHeader(nil, kindShard, 0, 1, 2)
	copy(v1, snapMagicV1)
	for _, id := range []string{"", "a"} {
		const js = "{}"
		v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(id)))
		v1 = append(v1, id...)
		v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(js)))
		v1 = append(v1, js...)
		v1 = binary.LittleEndian.AppendUint32(v1, crc32.Update(crc32.Checksum([]byte(id), crcTable), crcTable, []byte(js)))
	}
	v1 = appendTrailer(v1)
	for _, c := range []struct {
		data    []byte
		records int
	}{{v2, 1}, {v1, 2}} {
		if _, recs, err := decodeSnapshot(c.data); err != nil || len(recs) != c.records {
			t.Errorf("%s container of smallest frames: %d records, err %v; want %d", c.data[:8], len(recs), err, c.records)
		}
	}
}

func TestEncodeRefusesRecordsLoadWouldReject(t *testing.T) {
	// A flush must never install a file recovery would quarantine.
	for _, rec := range []core.BiasRecord{
		{Mean: math.NaN(), Count: 1},
		{Mean: 5, Min: 10, Max: 0, Count: 1},
		{Dev: -1, Count: 1},
	} {
		if _, err := encodeSnapshot(nil, kindShard, 0, 1, []snapRecord{{id: "d", rec: rec}}); err == nil {
			t.Errorf("record %+v encoded", rec)
		}
	}
	long := snapRecord{id: strings.Repeat("x", maxIDLen+1)}
	if _, err := encodeSnapshot(nil, kindShard, 0, 1, []snapRecord{long}); err == nil {
		t.Error("over-limit ID encoded")
	}
}

// copyDir copies a flat directory of test fixtures.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotMagics maps every snapshot file in dir to its magic.
func snapshotMagics(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, name := range names {
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data[:min(len(data), len(snapMagic))])
	}
	return out
}

func TestLoadDirMigratesVersion1Snapshots(t *testing.T) {
	// testdata/v1dir was written by the version-1 encoder: two flush
	// generations over four shards (shard 2 has only its first), 43
	// devices. v1dir.save.json is Save's output for that database.
	want, err := os.ReadFile(filepath.Join("testdata", "v1dir.save.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "v1dir"), dir)
	before := snapshotMagics(t, dir)
	for name, magic := range before {
		if magic != snapMagicV1 {
			t.Fatalf("fixture %s has magic %q, want %q", name, magic, snapMagicV1)
		}
	}

	s := New(Config{Shards: 4})
	stats, err := s.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsLoaded != 4 || stats.FilesQuarantined != 0 || stats.BehindManifest != 0 || stats.DevicesLoaded != 43 {
		t.Fatalf("stats = %+v, want 4 clean shards and 43 devices", stats)
	}
	if got := saveBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("version-1 directory loaded to\n%s\nwant\n%s", got, want)
	}

	// The next flush rewrites every shard (a load leaves all dirty), and
	// everything it writes is version 2.
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sn.FlushDirty(s); err != nil || n != 4 {
		t.Fatalf("migration flush wrote %d shards (err %v), want 4", n, err)
	}
	written := 0
	for name, magic := range snapshotMagics(t, dir) {
		if _, ok := before[name]; ok && name != manifestName {
			continue
		}
		written++
		if magic != snapMagic {
			t.Errorf("migration flush wrote %s with magic %q, want %q", name, magic, snapMagic)
		}
	}
	if written != 5 {
		t.Errorf("migration flush wrote %d files, want 4 shards and the manifest", written)
	}
	for _, shards := range []int{4, DefaultShards} {
		fresh := New(Config{Shards: shards})
		stats, err := fresh.LoadDir(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ShardsRecoveredOlder != 0 || stats.FilesQuarantined != 0 {
			t.Fatalf("reload stats = %+v, want newest generations", stats)
		}
		if got := saveBytes(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("migrated directory (%d shards) loaded to\n%s\nwant\n%s", shards, got, want)
		}
	}

	// One more flush retires the last version-1 generation.
	if err := sn.SaveAll(s); err != nil {
		t.Fatal(err)
	}
	for name, magic := range snapshotMagics(t, dir) {
		if magic != snapMagic {
			t.Errorf("%s still has magic %q after two flushes", name, magic)
		}
	}
}

func TestLoadFileReadsVersion1(t *testing.T) {
	// testdata/v1mono.snap is a SaveFile container written by the
	// version-1 encoder, v1mono.save.json its database's Save output.
	want, err := os.ReadFile(filepath.Join("testdata", "v1mono.save.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadFile(nil, filepath.Join("testdata", "v1mono.snap")); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("version-1 SaveFile loaded to\n%s\nwant\n%s", got, want)
	}
	if s.LatestObservation() != 99.5 {
		t.Errorf("latest observation = %v, want the newest LastSeen 99.5", s.LatestObservation())
	}
	// Written back, it is version 2 and loads to the same bytes.
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := s.SaveFile(nil, path); err != nil {
		t.Fatal(err)
	}
	if magics := snapshotMagics(t, filepath.Dir(path)); magics["v2.snap"] != snapMagic {
		t.Fatalf("SaveFile wrote magic %q, want %q", magics["v2.snap"], snapMagic)
	}
	fresh := New(Config{})
	if err := fresh.LoadFile(nil, path); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("version-2 rewrite loaded to\n%s\nwant\n%s", got, want)
	}
}

func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	populate(s, 300, 1)
	want := dump(s)
	if err := s.SaveDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	stats, err := fresh.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "after round trip")
	if stats.DevicesLoaded != 300 {
		t.Errorf("stats.DevicesLoaded = %d", stats.DevicesLoaded)
	}
	if stats.ShardsLost != 0 || stats.FilesQuarantined != 0 || stats.BehindManifest != 0 {
		t.Errorf("recovery stats report damage on a clean dir: %+v", stats)
	}
	if got := fresh.LatestObservation(); got != s.LatestObservation() {
		t.Errorf("latest observation = %v, want %v", got, s.LatestObservation())
	}
}

func TestLoadDirShardCountChange(t *testing.T) {
	// Snapshots written with one shard count must load into a server
	// with another: records are re-hashed, not bound to partitions.
	dir := t.TempDir()
	s := New(Config{Shards: 64})
	populate(s, 200, 2)
	want := dump(s)
	if err := s.SaveDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Shards: 8})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "after shard-count change")
}

func TestFlushDirtyIsIncremental(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	populate(s, 100, 3)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	// A clean database flushes nothing.
	if n, err := sn.FlushDirty(s); err != nil || n != 0 {
		t.Fatalf("idle flush wrote %d shards (err %v), want 0", n, err)
	}
	// One device's update dirties exactly one shard.
	s.Check(PHYObservation{DeviceID: "dev-00007", FBHz: -22000, ArrivalTime: 500})
	n, err := sn.FlushDirty(s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("after one device update, flushed %d shards, want 1", n)
	}
	// And the flushed state reloads exactly.
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, dump(s), dump(fresh), "after incremental flush")
}

// assertShardFilesSorted checks each shard's newest file in sn's directory
// against the copy-and-sort encoding of the shard as it stands
// (snapshotShard, sortRecords, encodeSnapshot).
func assertShardFilesSorted(t *testing.T, s *NetworkServer, sn *Snapshotter, label string) {
	t.Helper()
	for i := range s.shards {
		recs := s.snapshotShard(i, nil)
		sortRecords(recs)
		want, err := encodeSnapshot(nil, kindShard, uint32(i), sn.gens[i], recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(sn.Dir(), shardFileName(i, sn.gens[i])))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: shard %d file differs from the sorted encoding", label, i)
		}
	}
}

func TestFlushCachedOrderWritesSortedBytes(t *testing.T) {
	// While a shard's membership is unchanged, a flush copies its records
	// in the sorted order kept from its last flush. After every kind of
	// change — record values only, an ID added, a record replaced, an ID
	// deleted, a whole database installed — each shard's newest file must
	// equal the copy-and-sort encoding of the shard as it stands.
	dir, saved := t.TempDir(), t.TempDir()
	s := New(Config{Shards: 8})
	populate(s, 200, 11)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	flush := func(label string) {
		t.Helper()
		if _, err := sn.FlushDirty(s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertShardFilesSorted(t, s, sn, label)
	}
	versions := func() []uint64 {
		v := make([]uint64, len(s.shards))
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			v[i] = sh.version
			sh.mu.RUnlock()
		}
		return v
	}
	verdicts := func(at float64) {
		for i := 0; i < 200; i += 3 {
			id := fmt.Sprintf("dev-%05d", i)
			rec, _ := s.Record(id)
			s.Check(PHYObservation{DeviceID: id, FBHz: rec.Mean + 5, ArrivalTime: at + float64(i)})
		}
	}

	flush("first flush")
	var legacy bytes.Buffer
	if err := s.Save(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveDir(nil, saved); err != nil {
		t.Fatal(err)
	}
	before := versions()
	verdicts(400)
	if !slices.Equal(versions(), before) {
		t.Fatal("verdicts on known devices changed a shard's membership version")
	}
	flush("verdicts only")
	s.Enroll("dev-new", -21000, 10)
	flush("Enroll of a new ID")
	s.Enroll("dev-00006", -24000, 3)
	flush("Enroll over an existing ID")
	s.Check(PHYObservation{DeviceID: "dev-unknown", FBHz: -23000, ArrivalTime: 700})
	flush("an unknown device's first Check")
	if n := s.EvictExpired(700, 500); n == 0 {
		t.Fatal("the sweep evicted nothing")
	}
	flush("EvictExpired")
	if _, err := s.LoadDir(nil, saved); err != nil {
		t.Fatal(err)
	}
	flush("LoadDir")
	verdicts(800)
	flush("verdicts after LoadDir")
	if err := s.Load(&legacy); err != nil {
		t.Fatal(err)
	}
	flush("Load")
}

func TestFlushCachedOrderWithConcurrentEnroll(t *testing.T) {
	// A flush sorts a changed shard's order outside the shard's lock. IDs
	// enrolled meanwhile must not leave a stale order behind: once the
	// writer stops, a flush from the cached order must write what a fresh
	// copy-and-sort would. Whether an enrollment lands inside a sort is
	// down to scheduling, so the race runs several rounds, on one large
	// shard whose sort takes a good share of each flush.
	dir := t.TempDir()
	s := New(Config{Shards: 1})
	populate(s, 10000, 12)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 2000; i++ {
				s.Enroll(fmt.Sprintf("new-%02d-%04d", round, i), -22000, 10)
			}
		}()
		for flushing := true; flushing; {
			select {
			case <-done:
				flushing = false
			default:
			}
			if _, err := sn.FlushDirty(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := sn.SaveAll(s); err != nil {
			t.Fatal(err)
		}
		assertShardFilesSorted(t, s, sn, fmt.Sprintf("round %d", round))
	}
}

func TestFlushCachedOrderIsPerServer(t *testing.T) {
	// One Snapshotter flushing two servers with the same IDs: their shards
	// sit at the same membership versions, but hold other records. The
	// second flush must not copy through the first server's order.
	dir := t.TempDir()
	a, b := New(Config{Shards: 8}), New(Config{Shards: 8})
	populate(a, 200, 1)
	populate(b, 200, 2)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*NetworkServer{a, b} {
		if _, err := sn.FlushDirty(s); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(Config{Shards: 8})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, dump(b), dump(fresh), "after flushing a second server")
}

func TestLoadDirQuarantinesCorruptNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Shards: 4})
	populate(s, 60, 4)
	gen1 := dump(s)
	if err := s.SaveDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	// Advance every shard to a second generation.
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		s.Check(PHYObservation{DeviceID: fmt.Sprintf("dev-%05d", i), FBHz: gen1[fmt.Sprintf("dev-%05d", i)].Mean, ArrivalTime: 1000 + float64(i)})
	}
	gen2 := dump(s)
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	// Corrupt shard 0's newest generation on disk (flip a byte in the
	// middle so the CRC trailer catches it).
	name := shardFileName(0, 2)
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := New(Config{Shards: 4})
	stats, err := fresh.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsRecoveredOlder != 1 || stats.FilesQuarantined != 1 {
		t.Fatalf("stats = %+v, want one shard recovered from gen 1 and one file quarantined", stats)
	}
	if stats.BehindManifest != 1 {
		t.Errorf("stats.BehindManifest = %d, want 1 (manifest recorded gen 2)", stats.BehindManifest)
	}
	if len(stats.QuarantinedFiles) != 1 || stats.QuarantinedFiles[0] != name {
		t.Errorf("quarantined %v, want [%s]", stats.QuarantinedFiles, name)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
		t.Errorf("corrupt file not moved to quarantine: %v", err)
	}
	// Every recovered record is either gen-1 or gen-2 state, and shard
	// 0's devices are all gen-1 (prefix consistency per shard).
	got := dump(fresh)
	if err := core.ValidateDatabase(toPtr(got)); err != nil {
		t.Fatalf("recovered database invalid: %v", err)
	}
	for id, rec := range got {
		if rec != gen1[id] && rec != gen2[id] {
			t.Fatalf("device %s recovered as %+v, matching neither generation", id, rec)
		}
		if int(fnv32a(id)&3) == 0 && rec != gen1[id] {
			t.Fatalf("device %s in corrupted shard 0 = %+v, want gen-1 state %+v", id, rec, gen1[id])
		}
	}
}

func toPtr(m map[string]core.BiasRecord) map[string]*core.BiasRecord {
	out := make(map[string]*core.BiasRecord, len(m))
	for id, rec := range m {
		cp := rec
		out[id] = &cp
	}
	return out
}

func TestLoadDirAllGenerationsCorruptLosesOnlyThatShard(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Shards: 4})
	populate(s, 60, 5)
	if err := s.SaveDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	// Destroy shard 2's only generation.
	name := shardFileName(2, 1)
	if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Shards: 4})
	stats, err := fresh.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsLost != 1 || stats.ShardsLoaded != 3 {
		t.Fatalf("stats = %+v, want exactly one shard lost", stats)
	}
	want := dump(s)
	got := dump(fresh)
	for id, rec := range want {
		inLost := int(fnv32a(id)&3) == 2
		g, ok := got[id]
		if inLost && ok {
			t.Fatalf("device %s of the lost shard resurrected as %+v", id, g)
		}
		if !inLost && (!ok || g != rec) {
			t.Fatalf("device %s of a healthy shard = %+v ok=%v, want %+v", id, g, ok, rec)
		}
	}
}

func TestSaveFileLoadFileRoundTripAndTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.snap")
	s := New(Config{})
	populate(s, 64, 6)
	want := dump(s)
	if err := s.SaveFile(nil, path); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if err := fresh.LoadFile(nil, path); err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "single-file round trip")

	// A truncated snapshot must be rejected whole, at any cut point, and
	// must leave the in-memory database untouched.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 8, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1} {
		trunc := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(trunc, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		before := dump(fresh)
		err := fresh.LoadFile(nil, trunc)
		if n >= len(snapMagic) {
			// Container-format file: must fail as a bad snapshot.
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("truncation to %d bytes: err = %v, want ErrBadSnapshot", n, err)
			}
		} else if err == nil {
			t.Fatalf("truncation to %d bytes silently accepted", n)
		}
		equalDB(t, before, dump(fresh), "database after rejected load")
	}
}

func TestLoadFileLegacyJSON(t *testing.T) {
	// A monolithic JSON database written by the pre-sharded Save must
	// keep loading through LoadFile.
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.json")
	s := New(Config{})
	populate(s, 40, 7)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if err := fresh.LoadFile(nil, path); err != nil {
		t.Fatal(err)
	}
	equalDB(t, dump(s), dump(fresh), "legacy single file")
}

func TestLoadDirMigratesLegacyMonolithicDatabase(t *testing.T) {
	// A directory holding only a legacy monolithic JSON database loads,
	// and the first flush rewrites it as sharded snapshots that round-trip.
	dir := t.TempDir()
	s := New(Config{})
	populate(s, 80, 8)
	want := dump(s)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, LegacyDatabaseName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	migrated := New(Config{})
	stats, err := migrated.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LegacyFile != LegacyDatabaseName {
		t.Fatalf("stats.LegacyFile = %q", stats.LegacyFile)
	}
	equalDB(t, want, dump(migrated), "after legacy load")

	// First flush migrates: every shard is dirty after the load.
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sn.FlushDirty(migrated)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(migrated.shards) {
		t.Errorf("migration flush wrote %d shards, want all %d", n, len(migrated.shards))
	}
	// Now the sharded snapshot wins over the stale legacy file.
	fresh := New(Config{})
	stats, err = fresh.LoadDir(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LegacyFile != "" {
		t.Errorf("post-migration load still used the legacy file")
	}
	equalDB(t, want, dump(fresh), "after migration round trip")
}

func TestSnapshotterSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, shardFileName(3, 9)+".tmp")
	if err := os.WriteFile(stale, []byte("half a flush"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSnapshotter(nil, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Snapshotter open: %v", err)
	}
}

func TestSnapshotterResumesGenerations(t *testing.T) {
	// A reopened directory continues the generation sequence instead of
	// restarting at 1 (which would make "newest" ambiguous).
	dir := t.TempDir()
	s := New(Config{Shards: 4})
	populate(s, 20, 9)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	s.Check(PHYObservation{DeviceID: "dev-00001", FBHz: dump(s)["dev-00001"].Mean, ArrivalTime: 2000})
	sn2, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn2.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	maxGen := uint64(0)
	for _, name := range names {
		if _, gen, ok := parseShardFileName(name); ok && gen > maxGen {
			maxGen = gen
		}
	}
	if maxGen != 2 {
		t.Errorf("max generation after reopen+flush = %d, want 2", maxGen)
	}
	var found bool
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("temp file left behind: %s", name)
		}
		if name == manifestName {
			found = true
		}
	}
	if !found {
		t.Error("manifest missing after flush")
	}
}
