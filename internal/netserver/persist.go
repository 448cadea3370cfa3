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
	"slices"
	"sort"
	"strings"

	"softlora/internal/core"
	"softlora/internal/vfs"
)

// Snapshot container format. One container file holds the records of one
// shard (or, for single-file snapshots, the whole fleet):
//
//	magic    8  "SLNSNAP2"
//	kind     u32 (kindShard | kindManifest | kindMono)
//	shard    u32 shard index
//	gen      u64 generation number
//	count    u32 record count
//	records  count × { idLen u32 | id | record 48 B | crc u32 }
//	trailer  u32 CRC32-C of every preceding byte
//
// A record is core.BiasRecord's six fields at fixed width: mean, dev, min
// and max as float64 bits, count as int64, last_seen as float64 bits.
// Integers are little-endian; CRCs are CRC32-Castagnoli. Records are in
// ascending ID order, so equal states encode to equal bytes. The
// per-record CRC covers id+record (catches a bit flip inside one record
// and names it); the whole-file trailer catches truncation, framing damage
// and torn tails. A container either decodes completely and checksums
// clean, or it is rejected whole — there is no partial acceptance, because
// a shard file is only ever installed by an atomic rename and must
// therefore represent exactly one consistent flush.
//
// Version 1 ("SLNSNAP1") framed each record as { idLen u32 | id | recLen
// u32 | recJSON | crc u32 }, the record as JSON and the CRC over
// id+recJSON. It is read-only: decodeSnapshot still accepts it, so
// snapshot directories and SaveFile files written before version 2 keep
// loading, and a load marks every shard dirty, so the next flush rewrites
// them as version 2. The manifest container (kindManifest) holds one
// raw-payload record in that framing, { idLen u32 | id | payloadLen u32 |
// payload | crc u32 }, under either magic.
const (
	snapMagic   = "SLNSNAP2"
	snapMagicV1 = "SLNSNAP1"
)

// Container kinds.
const (
	kindShard uint32 = iota
	kindManifest
	kindMono
)

// Container geometry: the header, a version-2 record's fixed-width fields,
// and the smallest record frame of each version (idLen, recLen, a "{}"
// record and crc in version 1; idLen, record and crc in version 2), which
// bounds how many records a container of a given size can hold.
const (
	headerLen  = 8 + 4 + 4 + 8 + 4
	recordLen  = 6 * 8
	minFrameV1 = 4 + 4 + 2 + 4
	minFrameV2 = 4 + recordLen + 4
)

// Decode hard limits: a hostile or garbage header must not make the
// decoder allocate unbounded memory. The CRC does not stop a crafted file,
// so a header's record count is also checked against the bytes present
// before anything is sized by it.
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

// snapRecord is one device's record as the snapshot codec sees it.
type snapRecord struct {
	id  string
	rec core.BiasRecord
}

// sortRecords puts records in the container's ascending-ID order.
func sortRecords(recs []snapRecord) {
	slices.SortFunc(recs, func(a, b snapRecord) int { return strings.Compare(a.id, b.id) })
}

// appendHeader starts a version-2 container.
func appendHeader(dst []byte, kind, shard uint32, gen uint64, count uint32) []byte {
	dst = append(dst, snapMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, shard)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	return binary.LittleEndian.AppendUint32(dst, count)
}

// appendTrailer seals a container that starts at c[0] with the CRC of
// every byte of it.
func appendTrailer(c []byte) []byte {
	return binary.LittleEndian.AppendUint32(c, crc32.Checksum(c, crcTable))
}

// openContainer checks a container's magic, size and whole-file CRC and
// parses its header, returning the format version (1 or 2) and the record
// bytes between header and trailer. The CRC rejects accidental damage
// (torn tails, flipped bits) before any record is parsed; it does not stop
// a crafted file, so the record decoders still bound every length.
func openContainer(data []byte) (h snapHeader, version int, body []byte, err error) {
	if len(data) < headerLen+4 {
		return h, 0, nil, fmt.Errorf("%w: short file (%d bytes)", ErrBadSnapshot, len(data))
	}
	switch string(data[:8]) {
	case snapMagic:
		version = 2
	case snapMagicV1:
		version = 1
	default:
		return h, 0, nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	end := len(data) - 4
	if crc32.Checksum(data[:end], crcTable) != binary.LittleEndian.Uint32(data[end:]) {
		return h, 0, nil, fmt.Errorf("%w: file checksum mismatch", ErrBadSnapshot)
	}
	h.kind = binary.LittleEndian.Uint32(data[8:])
	h.shard = binary.LittleEndian.Uint32(data[12:])
	h.gen = binary.LittleEndian.Uint64(data[16:])
	h.count = binary.LittleEndian.Uint32(data[24:])
	return h, version, data[headerLen:end], nil
}

// encodeSnapshot encodes recs, which must be in ascending-ID order
// (sortRecords), as a version-2 container, reusing dst's storage. A record
// that would fail core.BiasRecord.Validate on load, or an ID over the
// frame limit, fails the encode: a flush must never install a file that
// recovery would quarantine.
func encodeSnapshot(dst []byte, kind, shard uint32, gen uint64, recs []snapRecord) ([]byte, error) {
	dst = appendHeader(dst[:0], kind, shard, gen, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		if len(r.id) > maxIDLen {
			return dst, fmt.Errorf("netserver: record %q exceeds container frame limits", r.id)
		}
		if err := r.rec.Validate(); err != nil {
			return dst, fmt.Errorf("netserver: encoding record %q: %w", r.id, err)
		}
		dst = appendRecord(dst, r)
	}
	return appendTrailer(dst), nil
}

// appendRecord appends one version-2 record frame.
func appendRecord(dst []byte, r *snapRecord) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.id)))
	start := len(dst)
	dst = append(dst, r.id...)
	for _, v := range [...]uint64{
		math.Float64bits(r.rec.Mean), math.Float64bits(r.rec.Dev),
		math.Float64bits(r.rec.Min), math.Float64bits(r.rec.Max),
		uint64(int64(r.rec.Count)), math.Float64bits(r.rec.LastSeen),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// decodeSnapshot parses and verifies a container of either version. Every
// failure — wrong magic, truncation anywhere, a flipped bit in a record or
// the framing, an invalid record, a duplicate or out-of-order ID, a count
// that does not match the records — rejects the whole container with
// ErrBadSnapshot; a nil error guarantees the returned records, in
// ascending-ID order, passed core.BiasRecord.Validate.
func decodeSnapshot(data []byte) (snapHeader, []snapRecord, error) {
	h, version, p, err := openContainer(data)
	fail := func(format string, args ...any) (snapHeader, []snapRecord, error) {
		return h, nil, fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if err != nil {
		return h, nil, err
	}
	decode, minFrame := decodeRecordV2, minFrameV2
	if version == 1 {
		decode, minFrame = decodeRecordV1, minFrameV1
	}
	if uint64(h.count) > uint64(len(p)/minFrame) {
		return fail("count %d exceeds what %d record bytes can hold", h.count, len(p))
	}
	recs := make([]snapRecord, h.count)
	for i := range recs {
		r := &recs[i]
		n, err := decode(p, r)
		if err != nil {
			return fail("record %d: %v", i, err)
		}
		p = p[n:]
		if err := r.rec.Validate(); err != nil {
			return fail("record %q: %v", r.id, err)
		}
		if i > 0 && r.id <= recs[i-1].id {
			return fail("record %q: duplicate or out of order", r.id)
		}
	}
	if len(p) != 0 {
		return fail("%d trailing bytes after last record", len(p))
	}
	return h, recs, nil
}

// decodeRecordV2 decodes the version-2 record frame at the head of p into
// r and returns the frame's length.
func decodeRecordV2(p []byte, r *snapRecord) (int, error) {
	if len(p) < 4 {
		return 0, errors.New("truncated")
	}
	idLen := binary.LittleEndian.Uint32(p)
	if idLen > maxIDLen || uint64(len(p)) < 4+uint64(idLen)+recordLen+4 {
		return 0, fmt.Errorf("bad id length %d", idLen)
	}
	body := p[4 : 4+idLen+recordLen]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(p[4+idLen+recordLen:]) {
		return 0, fmt.Errorf("%q: checksum mismatch", body[:idLen])
	}
	r.id = string(body[:idLen])
	f := body[idLen:]
	count := int64(binary.LittleEndian.Uint64(f[32:]))
	if int64(int(count)) != count {
		return 0, fmt.Errorf("%q: count %d overflows int", r.id, count)
	}
	r.rec = core.BiasRecord{
		Mean:     math.Float64frombits(binary.LittleEndian.Uint64(f)),
		Dev:      math.Float64frombits(binary.LittleEndian.Uint64(f[8:])),
		Min:      math.Float64frombits(binary.LittleEndian.Uint64(f[16:])),
		Max:      math.Float64frombits(binary.LittleEndian.Uint64(f[24:])),
		Count:    int(count),
		LastSeen: math.Float64frombits(binary.LittleEndian.Uint64(f[40:])),
	}
	return int(4 + idLen + recordLen + 4), nil
}

// decodeRecordV1 decodes the version-1 (JSON record) frame at the head of
// p into r and returns the frame's length.
func decodeRecordV1(p []byte, r *snapRecord) (int, error) {
	if len(p) < 4 {
		return 0, errors.New("truncated")
	}
	idLen := binary.LittleEndian.Uint32(p)
	if idLen > maxIDLen || uint64(len(p)) < 4+uint64(idLen)+4 {
		return 0, fmt.Errorf("bad id length %d", idLen)
	}
	id := p[4 : 4+idLen]
	q := p[4+idLen:]
	recLen := binary.LittleEndian.Uint32(q)
	if recLen > maxRecLen || uint64(len(q)) < 4+uint64(recLen)+4 {
		return 0, fmt.Errorf("bad record length %d", recLen)
	}
	js := q[4 : 4+recLen]
	crc := crc32.Update(crc32.Checksum(id, crcTable), crcTable, js)
	if crc != binary.LittleEndian.Uint32(q[4+recLen:]) {
		return 0, fmt.Errorf("%q: checksum mismatch", id)
	}
	r.id = string(id)
	if err := json.Unmarshal(js, &r.rec); err != nil {
		return 0, fmt.Errorf("%q: %v", r.id, err)
	}
	return int(4 + idLen + 4 + recLen + 4), nil
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
	// recs and buf are one shard's record copy and encoding, reused from
	// shard to shard and flush to flush.
	recs []snapRecord
	buf  []byte
	// orders holds each of srv's shards' ascending-ID order from its last
	// flush, so a shard whose membership did not change since is flushed
	// without sorting (snapshotShardOrdered).
	srv    *NetworkServer
	orders []shardOrder
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
	sn.recs = s.snapshotShardOrdered(i, &sn.orders[i], sn.recs[:0])
	gen := sn.gens[i] + 1
	data, err := encodeSnapshot(sn.buf, kindShard, uint32(i), gen, sn.recs)
	sn.buf = data
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
	const id = "manifest"
	buf := appendHeader(sn.buf[:0], kindManifest, 0, 0, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(js)))
	buf = append(buf, js...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Update(crc32.Checksum([]byte(id), crcTable), crcTable, js))
	sn.buf = appendTrailer(buf)
	return atomicWrite(sn.fsys, vfs.Join(sn.dir, manifestName), sn.buf)
}

// FlushDirty writes every dirty shard to a new generation and updates the
// manifest, returning how many shards were flushed. On the first error the
// failed shard is re-marked dirty and the flush aborts; shards already
// installed keep their new generation (each shard file is atomic on its
// own), shards not yet reached stay dirty — the whole operation is
// retryable and a retry resumes where the failure left off.
func (sn *Snapshotter) FlushDirty(s *NetworkServer) (int, error) {
	if sn.srv != s {
		sn.srv, sn.orders = s, make([]shardOrder, len(s.shards))
	}
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

// decodeManifestPayload extracts the manifest JSON from a manifest
// container of either version; only the container-level checksums are
// verified.
func decodeManifestPayload(data []byte) (manifest, bool) {
	var m manifest
	h, _, p, err := openContainer(data)
	if err != nil || h.kind != kindManifest || len(p) < 4 {
		return m, false
	}
	idLen := binary.LittleEndian.Uint32(p)
	if uint64(len(p)) < 4+uint64(idLen)+4 {
		return m, false
	}
	p = p[4+idLen:]
	recLen := binary.LittleEndian.Uint32(p)
	if uint64(len(p)) < 4+uint64(recLen)+4 {
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
	// Walk shards in ascending order: stale files from a different
	// shard-count era can hold the same device ID under two shard
	// numbers, and last-write-wins in installRecords must not depend on
	// map iteration order.
	var files [][]snapRecord
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
			var records []snapRecord
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
			files = append(files, records)
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
	stats.DevicesLoaded = s.installRecords(files)
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
	recs := make([]snapRecord, 0, s.Devices())
	for i := range s.shards {
		recs = s.snapshotShard(i, recs)
	}
	sortRecords(recs)
	data, err := encodeSnapshot(nil, kindMono, 0, 0, recs)
	if err != nil {
		return err
	}
	return atomicWrite(fsys, path, data)
}

// LoadFile replaces the database from path, auto-detecting the format: a
// checksummed container written by SaveFile (either container version), or
// a legacy monolithic JSON database in the format Save writes. A truncated
// or bit-flipped container is rejected whole (ErrBadSnapshot) and the
// current database is kept — there is no silent partial load. A nil fsys
// selects the real filesystem.
func (s *NetworkServer) LoadFile(fsys vfs.FS, path string) error {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	data, err := readAll(fsys, path)
	if err != nil {
		return fmt.Errorf("netserver: reading %s: %w", path, err)
	}
	if magic := string(data[:min(len(data), len(snapMagic))]); magic == snapMagic || magic == snapMagicV1 {
		h, records, err := decodeSnapshot(data)
		if err != nil {
			return err
		}
		if h.kind != kindMono {
			return fmt.Errorf("%w: %s is not a single-file snapshot", ErrBadSnapshot, path)
		}
		s.installRecords([][]snapRecord{records})
		return nil
	}
	return s.Load(bytes.NewReader(data))
}
