package netserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"softlora/internal/core"
	"softlora/internal/vfs"
)

// Snapshot container format. One container file holds the records of one
// shard (or, for single-file snapshots, the whole fleet):
//
//	magic    8  "SLNSNAP1"
//	kind     u32 (kindShard | kindManifest | kindMono)
//	shard    u32 shard index
//	gen      u64 generation number
//	count    u32 record count
//	records  count × { idLen u32 | id | recLen u32 | recJSON | crc u32 }
//	trailer  u32 CRC32-C of every preceding byte
//
// Integers are little-endian; CRCs are CRC32-Castagnoli. The per-record
// CRC covers id+recJSON (catches a bit flip inside one record and names
// it); the whole-file trailer catches truncation, framing damage and torn
// tails. A container either decodes completely and checksums clean, or it
// is rejected whole — there is no partial acceptance, because a shard file
// is only ever installed by an atomic rename and must therefore represent
// exactly one consistent flush.
const snapMagic = "SLNSNAP1"

// Container kinds.
const (
	kindShard uint32 = iota
	kindManifest
	kindMono
)

// Decode hard limits: a hostile or garbage header must not make the
// decoder allocate unbounded memory before the CRC check can reject it.
const (
	maxIDLen  = 1 << 12
	maxRecLen = 1 << 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSnapshot wraps every container-level decode failure (bad magic,
// CRC mismatch, truncation, over-limit frames).
var ErrBadSnapshot = errors.New("netserver: bad snapshot container")

// snapHeader is a decoded container header.
type snapHeader struct {
	kind  uint32
	shard uint32
	gen   uint64
	count uint32
}

// encodeSnapshot serializes records into a container. IDs are sorted so
// equal states encode to equal bytes (flush determinism is testable).
func encodeSnapshot(kind, shard uint32, gen uint64, records map[string]core.BiasRecord) ([]byte, error) {
	ids := make([]string, 0, len(records))
	//softlora:nondeterministic-ok keys are sorted before encoding
	for id := range records {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	put32(kind)
	put32(shard)
	binary.LittleEndian.PutUint64(u64[:], gen)
	buf.Write(u64[:])
	put32(uint32(len(ids)))
	for _, id := range ids {
		rec := records[id]
		js, err := json.Marshal(&rec)
		if err != nil {
			return nil, fmt.Errorf("netserver: encoding record %q: %w", id, err)
		}
		if len(id) > maxIDLen || len(js) > maxRecLen {
			return nil, fmt.Errorf("netserver: record %q exceeds container frame limits", id)
		}
		put32(uint32(len(id)))
		buf.WriteString(id)
		put32(uint32(len(js)))
		buf.Write(js)
		crc := crc32.Update(0, crcTable, []byte(id))
		crc = crc32.Update(crc, crcTable, js)
		put32(crc)
	}
	put32(crc32.Checksum(buf.Bytes(), crcTable))
	return buf.Bytes(), nil
}

// decodeSnapshot parses and verifies a container. Every failure — wrong
// magic, truncation anywhere, a flipped bit in a record or the framing, an
// invalid record — rejects the whole container with ErrBadSnapshot; a nil
// error guarantees the returned records passed core.BiasRecord.Validate.
func decodeSnapshot(data []byte) (snapHeader, map[string]core.BiasRecord, error) {
	var h snapHeader
	fail := func(format string, args ...any) (snapHeader, map[string]core.BiasRecord, error) {
		return h, nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	const headerLen = 8 + 4 + 4 + 8 + 4
	if len(data) < headerLen+4 {
		return fail("short file (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return fail("bad magic")
	}
	// Whole-file CRC first: everything after this point may assume the
	// bytes are exactly what a flush wrote.
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != trailer {
		return fail("file checksum mismatch")
	}
	h.kind = binary.LittleEndian.Uint32(data[8:])
	h.shard = binary.LittleEndian.Uint32(data[12:])
	h.gen = binary.LittleEndian.Uint64(data[16:])
	h.count = binary.LittleEndian.Uint32(data[24:])
	p := data[headerLen : len(data)-4]
	records := make(map[string]core.BiasRecord, h.count)
	for i := uint32(0); i < h.count; i++ {
		if len(p) < 4 {
			return fail("truncated record %d", i)
		}
		idLen := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if idLen > maxIDLen || uint32(len(p)) < idLen+4 {
			return fail("record %d: bad id length %d", i, idLen)
		}
		id := string(p[:idLen])
		p = p[idLen:]
		recLen := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if recLen > maxRecLen || uint32(len(p)) < recLen+4 {
			return fail("record %d: bad record length %d", i, recLen)
		}
		js := p[:recLen]
		p = p[recLen:]
		crc := binary.LittleEndian.Uint32(p)
		p = p[4:]
		want := crc32.Update(0, crcTable, []byte(id))
		want = crc32.Update(want, crcTable, js)
		if crc != want {
			return fail("record %q: checksum mismatch", id)
		}
		var rec core.BiasRecord
		if err := json.Unmarshal(js, &rec); err != nil {
			return fail("record %q: %v", id, err)
		}
		if err := rec.Validate(); err != nil {
			return fail("record %q: %v", id, err)
		}
		if _, dup := records[id]; dup {
			return fail("record %q: duplicate", id)
		}
		records[id] = rec
	}
	if len(p) != 0 {
		return fail("%d trailing bytes after last record", len(p))
	}
	return h, records, nil
}

// atomicWrite writes data to path crash-safely: write to path+".tmp",
// fsync, close, rename over path. A crash at any point leaves either the
// old file (rename not reached) or the new one (rename done) — never a
// mix — plus at worst a stale .tmp that the next Snapshotter open sweeps.
func atomicWrite(fsys vfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("netserver: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("netserver: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("netserver: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("netserver: closing %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("netserver: installing %s: %w", path, err)
	}
	return nil
}

// shardFileName is "shard-SSSS.gNNNNNNNNNNNN.snap"; lexicographic order on
// equal shard indices is generation order.
func shardFileName(shard int, gen uint64) string {
	return fmt.Sprintf("shard-%04d.g%012d.snap", shard, gen)
}

// parseShardFileName inverts shardFileName.
func parseShardFileName(name string) (shard int, gen uint64, ok bool) {
	if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".snap") {
		return 0, 0, false
	}
	if n, err := fmt.Sscanf(name, "shard-%04d.g%012d.snap", &shard, &gen); err != nil || n != 2 {
		return 0, 0, false
	}
	return shard, gen, true
}

// manifestName is the directory's manifest file.
const manifestName = "MANIFEST.snap"

// quarantineDir is where the loader moves corrupt snapshot files — kept,
// not deleted, so an operator can post-mortem the corruption.
const quarantineDir = "quarantine"

// manifest records, per shard, the generation the last completed flush
// cycle left on disk. It is bookkeeping, not the source of truth: the
// loader trusts per-file checksums and picks the newest valid generation
// per shard, and uses the manifest only to detect that a shard is *behind*
// — i.e. a crash landed between a shard install and the manifest update.
type manifest struct {
	Version     int      `json:"version"`
	Shards      int      `json:"shards"`
	Generations []uint64 `json:"generations"`
}

// RecoveryStats reports what LoadDir found and how much of it survived.
type RecoveryStats struct {
	// ShardFiles is how many shard snapshot files the directory held.
	ShardFiles int
	// ShardsLoaded is how many shards recovered from their newest
	// on-disk generation.
	ShardsLoaded int
	// ShardsRecoveredOlder is how many shards fell back to an older
	// generation because the newest file was corrupt.
	ShardsRecoveredOlder int
	// ShardsLost is how many shards had files but no valid generation
	// at all; their devices re-enroll.
	ShardsLost int
	// FilesQuarantined is how many corrupt files were moved to
	// quarantine/ (never deleted).
	FilesQuarantined int
	// QuarantinedFiles names them.
	QuarantinedFiles []string
	// BehindManifest is how many recovered shards sit at an older
	// generation than the manifest recorded — the signature of a crash
	// between a shard install and the manifest write. Bounded data loss:
	// at most that shard's last un-flushed interval.
	BehindManifest int
	// DevicesLoaded is the total record count installed.
	DevicesLoaded int
	// LegacyFile is set when the directory held no sharded snapshot but
	// a legacy monolithic JSON database was found and migrated in.
	LegacyFile string
}

// Snapshotter owns the on-disk sharded snapshot state for one directory:
// per-shard generation counters, the manifest, and temp-file hygiene. It
// is not safe for concurrent use; the Flusher serializes access to it.
type Snapshotter struct {
	fsys vfs.FS
	dir  string
	// gens is the newest generation known to be installed per shard
	// index (0 = none yet).
	gens map[int]uint64
	// keep is how many generations to retain per shard (≥2 so a corrupt
	// newest file always has a fallback).
	keep int
}

// NewSnapshotter opens (creating if needed) a snapshot directory. Stale
// .tmp files from a crashed writer are removed; existing shard files seed
// the generation counters so new flushes strictly advance them. A nil fsys
// selects the real filesystem.
func NewSnapshotter(fsys vfs.FS, dir string) (*Snapshotter, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("netserver: creating snapshot dir: %w", err)
	}
	sn := &Snapshotter{fsys: fsys, dir: dir, gens: make(map[int]uint64), keep: 2}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("netserver: scanning snapshot dir: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// A crashed writer's leftover: never installed, safe to drop.
			_ = fsys.Remove(vfs.Join(dir, name))
			continue
		}
		if shard, gen, ok := parseShardFileName(name); ok && gen > sn.gens[shard] {
			sn.gens[shard] = gen
		}
	}
	return sn, nil
}

// Dir returns the snapshot directory.
func (sn *Snapshotter) Dir() string { return sn.dir }

// flushShard snapshots and installs shard i at the next generation.
func (sn *Snapshotter) flushShard(s *NetworkServer, i int) error {
	records := s.snapshotShard(i, nil)
	gen := sn.gens[i] + 1
	data, err := encodeSnapshot(kindShard, uint32(i), gen, records)
	if err != nil {
		return err
	}
	if err := atomicWrite(sn.fsys, vfs.Join(sn.dir, shardFileName(i, gen)), data); err != nil {
		return err
	}
	sn.gens[i] = gen
	// Retire the generation falling out of the retention window (each
	// flush retires at most one; earlier flushes retired the rest).
	// Best-effort: a failed remove costs disk, not correctness.
	if gen > uint64(sn.keep) {
		_ = sn.fsys.Remove(vfs.Join(sn.dir, shardFileName(i, gen-uint64(sn.keep))))
	}
	return nil
}

// writeManifest records the current generation vector. The manifest rides
// in its own container (one raw-payload record) so it shares the checksum
// and atomic-rename protections of shard files.
func (sn *Snapshotter) writeManifest(shards int) error {
	m := manifest{Version: 1, Shards: shards, Generations: make([]uint64, shards)}
	for i := 0; i < shards; i++ {
		m.Generations[i] = sn.gens[i]
	}
	js, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("netserver: encoding manifest: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	put32(kindManifest)
	put32(0)
	binary.LittleEndian.PutUint64(u64[:], 0)
	buf.Write(u64[:])
	put32(1)
	const id = "manifest"
	put32(uint32(len(id)))
	buf.WriteString(id)
	put32(uint32(len(js)))
	buf.Write(js)
	crc := crc32.Update(0, crcTable, []byte(id))
	crc = crc32.Update(crc, crcTable, js)
	put32(crc)
	put32(crc32.Checksum(buf.Bytes(), crcTable))
	return atomicWrite(sn.fsys, vfs.Join(sn.dir, manifestName), buf.Bytes())
}

// FlushDirty writes every dirty shard to a new generation and updates the
// manifest, returning how many shards were flushed. On the first error the
// failed shard is re-marked dirty and the flush aborts; shards already
// installed keep their new generation (each shard file is atomic on its
// own), shards not yet reached stay dirty — the whole operation is
// retryable and a retry resumes where the failure left off.
func (sn *Snapshotter) FlushDirty(s *NetworkServer) (int, error) {
	flushed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		if !sh.dirty.Swap(false) {
			continue
		}
		if err := sn.flushShard(s, i); err != nil {
			sh.dirty.Store(true)
			return flushed, err
		}
		flushed++
	}
	if flushed > 0 {
		if err := sn.writeManifest(len(s.shards)); err != nil {
			return flushed, err
		}
	}
	return flushed, nil
}

// SaveAll flushes every shard regardless of dirtiness — a full checkpoint.
func (sn *Snapshotter) SaveAll(s *NetworkServer) error {
	for i := range s.shards {
		s.shards[i].dirty.Store(true)
	}
	_, err := sn.FlushDirty(s)
	return err
}

// readManifest decodes the directory's manifest; ok is false when it is
// missing or fails its checksums (the loader then simply has no
// staleness hints).
func (sn *Snapshotter) readManifest() (manifest, bool) {
	data, err := readAll(sn.fsys, vfs.Join(sn.dir, manifestName))
	if err != nil {
		return manifest{}, false
	}
	return decodeManifestPayload(data)
}

// decodeManifestContainer verifies only the container-level checksums of a
// manifest file (its payload is manifest JSON, not a BiasRecord).
func decodeManifestContainer(data []byte) (snapHeader, []byte, error) {
	var h snapHeader
	const headerLen = 8 + 4 + 4 + 8 + 4
	if len(data) < headerLen+4 || string(data[:8]) != snapMagic {
		return h, nil, fmt.Errorf("%w: bad manifest container", ErrBadSnapshot)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != trailer {
		return h, nil, fmt.Errorf("%w: manifest checksum mismatch", ErrBadSnapshot)
	}
	h.kind = binary.LittleEndian.Uint32(data[8:])
	h.shard = binary.LittleEndian.Uint32(data[12:])
	h.gen = binary.LittleEndian.Uint64(data[16:])
	h.count = binary.LittleEndian.Uint32(data[24:])
	return h, data[headerLen : len(data)-4], nil
}

// decodeManifestPayload extracts the manifest JSON from a verified
// container.
func decodeManifestPayload(data []byte) (manifest, bool) {
	var m manifest
	h, p, err := decodeManifestContainer(data)
	if err != nil || h.kind != kindManifest || len(p) < 4 {
		return m, false
	}
	idLen := binary.LittleEndian.Uint32(p)
	if uint32(len(p)) < 4+idLen+4 {
		return m, false
	}
	p = p[4+idLen:]
	recLen := binary.LittleEndian.Uint32(p)
	if uint32(len(p)) < 4+recLen+4 {
		return m, false
	}
	if err := json.Unmarshal(p[4:4+recLen], &m); err != nil {
		return m, false
	}
	return m, true
}

// readAll opens and fully reads one file.
func readAll(fsys vfs.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// quarantine moves a corrupt snapshot file aside (best-effort).
func (sn *Snapshotter) quarantine(name string, stats *RecoveryStats) {
	stats.FilesQuarantined++
	stats.QuarantinedFiles = append(stats.QuarantinedFiles, name)
	qdir := vfs.Join(sn.dir, quarantineDir)
	if err := sn.fsys.MkdirAll(qdir); err != nil {
		return
	}
	_ = sn.fsys.Rename(vfs.Join(sn.dir, name), vfs.Join(qdir, name))
}

// Load recovers the newest valid generation of every shard in the
// directory and installs the result into s, replacing its database. Per
// shard, candidate files are tried newest-first: a corrupt file is
// quarantined and the next older generation is used instead, so one
// damaged shard costs at most that shard's most recent flush interval —
// never the fleet. A directory with no sharded snapshot falls back to a
// legacy monolithic JSON database ("biasdb.json", then any "*.json") and
// migrates it: every shard is left dirty, so the first flush rewrites it
// sharded.
//
// The returned RecoveryStats always describes what happened, even
// alongside a nil error. Load only fails on I/O errors reading the
// directory itself; corruption is a recovery event, not a failure.
func (sn *Snapshotter) Load(s *NetworkServer) (RecoveryStats, error) {
	var stats RecoveryStats
	names, err := sn.fsys.ReadDir(sn.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, fmt.Errorf("netserver: scanning snapshot dir: %w", err)
	}
	// Group candidate generations per shard, newest first.
	byShard := make(map[int][]uint64)
	var legacy []string
	for _, name := range names {
		if shard, gen, ok := parseShardFileName(name); ok {
			byShard[shard] = append(byShard[shard], gen)
			stats.ShardFiles++
			continue
		}
		if strings.HasSuffix(name, ".json") {
			legacy = append(legacy, name)
		}
	}
	if len(byShard) == 0 {
		return sn.loadLegacy(s, legacy, stats)
	}
	man, haveMan := sn.readManifest()
	all := make(map[string]*core.BiasRecord)
	// Walk shards in ascending order: stale files from a different
	// shard-count era can hold the same device ID under two shard
	// numbers, and last-write-wins into all must not depend on map
	// iteration order.
	shardNums := make([]int, 0, len(byShard))
	//softlora:nondeterministic-ok keys are sorted before use
	for shard := range byShard {
		shardNums = append(shardNums, shard)
	}
	sort.Ints(shardNums)
	for _, shard := range shardNums {
		gens := byShard[shard]
		sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
		recovered := false
		for gi, gen := range gens {
			name := shardFileName(shard, gen)
			data, err := readAll(sn.fsys, vfs.Join(sn.dir, name))
			var h snapHeader
			var records map[string]core.BiasRecord
			if err == nil {
				h, records, err = decodeSnapshot(data)
			}
			if err == nil && (h.kind != kindShard || int(h.shard) != shard) {
				err = fmt.Errorf("%w: header names shard %d, file names %d", ErrBadSnapshot, h.shard, shard)
			}
			if err != nil {
				sn.quarantine(name, &stats)
				continue
			}
			//softlora:nondeterministic-ok IDs are unique within one shard file; merge into a map
			for id, rec := range records {
				cp := rec
				all[id] = &cp
			}
			if gi == 0 {
				stats.ShardsLoaded++
			} else {
				stats.ShardsRecoveredOlder++
			}
			if haveMan && shard < len(man.Generations) && gen < man.Generations[shard] {
				stats.BehindManifest++
			}
			if gen > sn.gens[shard] {
				sn.gens[shard] = gen
			}
			recovered = true
			break
		}
		if !recovered {
			stats.ShardsLost++
		}
	}
	stats.DevicesLoaded = len(all)
	s.installShards(all)
	s.observeTime(maxLastSeen(all))
	return stats, nil
}

// loadLegacy migrates a monolithic JSON database into the server when the
// directory holds no sharded snapshot yet.
func (sn *Snapshotter) loadLegacy(s *NetworkServer, candidates []string, stats RecoveryStats) (RecoveryStats, error) {
	// Prefer the conventional name; otherwise try in lexicographic order.
	sort.Slice(candidates, func(i, j int) bool {
		if (candidates[i] == LegacyDatabaseName) != (candidates[j] == LegacyDatabaseName) {
			return candidates[i] == LegacyDatabaseName
		}
		return candidates[i] < candidates[j]
	})
	for _, name := range candidates {
		data, err := readAll(sn.fsys, vfs.Join(sn.dir, name))
		if err != nil {
			continue
		}
		if err := s.Load(bytes.NewReader(data)); err != nil {
			continue
		}
		stats.LegacyFile = name
		stats.DevicesLoaded = s.Devices()
		return stats, nil
	}
	return stats, nil
}

// LegacyDatabaseName is the conventional filename of a monolithic JSON
// bias database inside a snapshot directory.
const LegacyDatabaseName = "biasdb.json"

// maxLastSeen scans loaded records for the newest observation stamp.
func maxLastSeen(devices map[string]*core.BiasRecord) float64 {
	latest := math.Inf(-1)
	//softlora:nondeterministic-ok max over values is order-independent
	for _, rec := range devices {
		if rec.LastSeen > latest {
			latest = rec.LastSeen
		}
	}
	if math.IsInf(latest, -1) {
		return 0
	}
	return latest
}

// SaveDir writes a full sharded checkpoint of the database to dir — the
// one-shot form of Snapshotter.SaveAll for callers that do not keep a
// flusher running. A nil fsys selects the real filesystem.
func (s *NetworkServer) SaveDir(fsys vfs.FS, dir string) error {
	sn, err := NewSnapshotter(fsys, dir)
	if err != nil {
		return err
	}
	return sn.SaveAll(s)
}

// LoadDir recovers the database from a snapshot directory (see
// Snapshotter.Load for the recovery semantics, including legacy
// monolithic-JSON migration). A nil fsys selects the real filesystem.
func (s *NetworkServer) LoadDir(fsys vfs.FS, dir string) (RecoveryStats, error) {
	sn, err := NewSnapshotter(fsys, dir)
	if err != nil {
		return RecoveryStats{}, err
	}
	return sn.Load(s)
}

// SaveFile writes the whole database as one checksummed container at path,
// via the same write-to-temp + fsync + atomic-rename protocol as shard
// snapshots: a crash leaves the previous file intact, and any truncation
// or corruption of the new one is caught by checksum on load. A nil fsys
// selects the real filesystem.
func (s *NetworkServer) SaveFile(fsys vfs.FS, path string) error {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	merged := make(map[string]core.BiasRecord, s.Devices())
	for i := range s.shards {
		s.snapshotShard(i, merged)
	}
	data, err := encodeSnapshot(kindMono, 0, 0, merged)
	if err != nil {
		return err
	}
	return atomicWrite(fsys, path, data)
}

// LoadFile replaces the database from path, auto-detecting the format: a
// checksummed container written by SaveFile, or a legacy monolithic JSON
// database in the format Save writes. A truncated or
// bit-flipped container is rejected whole (ErrBadSnapshot) and the current
// database is kept — there is no silent partial load. A nil fsys selects
// the real filesystem.
func (s *NetworkServer) LoadFile(fsys vfs.FS, path string) error {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	data, err := readAll(fsys, path)
	if err != nil {
		return fmt.Errorf("netserver: reading %s: %w", path, err)
	}
	if len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) == snapMagic {
		h, records, err := decodeSnapshot(data)
		if err != nil {
			return err
		}
		if h.kind != kindMono {
			return fmt.Errorf("%w: %s is not a single-file snapshot", ErrBadSnapshot, path)
		}
		devices := make(map[string]*core.BiasRecord, len(records))
		//softlora:nondeterministic-ok map-to-map copy; IDs are unique
		for id, rec := range records {
			cp := rec
			devices[id] = &cp
		}
		s.installShards(devices)
		s.observeTime(maxLastSeen(devices))
		return nil
	}
	return s.Load(bytes.NewReader(data))
}
