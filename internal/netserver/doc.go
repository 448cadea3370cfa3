// Package netserver is the LoRaWAN network-server side of the SoftLoRa
// defense: the per-device frequency-bias database of §7.2 lifted out of the
// single gateway into a durable backend that one or many gateways feed.
//
// # Architecture
//
// Gateways run the concurrent, side-effect-free PHY stage (down-conversion,
// onset timestamping, FB estimation) and emit one PHYObservation per
// received frame copy. The NetworkServer owns the bias database and applies
// the §7.2 verdict-and-update policy (core.CheckRecord) exactly once per
// frame:
//
//   - Dedup: the same frame heard by several receivers (same DeviceID and
//     FrameID) contributes multiple observations but gets ONE verdict and at
//     most one database update — without dedup, N receivers would fold the
//     same frame N times and a replay would be flagged N times.
//
//   - Fusion: the FB estimates of the receivers are combined by an
//     inverse-variance (jitter-weighted) mean, so a frame heard through one
//     good link and two marginal ones is judged on an estimate at least as
//     tight as the best single receiver's.
//
// The package is split by concern: db.go (the sharded in-memory store and
// verdict path), window.go (the streaming cross-call dedup window),
// health.go (the gateway health tracker), persist.go (snapshot container
// format, Snapshotter, crash-safe loader), flush.go (the background
// Flusher).
//
// # Streaming window contract
//
// Real deployments do not hand the server a frame's copies in one call:
// gateway backhauls deliver them seconds apart, reordered, duplicated and
// sometimes late. With Config.Window.Hold > 0, Check and CheckBatch stop
// judging immediately and ingest into a cross-call dedup window instead:
//
//   - What merges: observations sharing (DeviceID, FrameID) fuse into one
//     pending frame regardless of which call delivered them, at most one
//     copy per GatewayID (redeliveries keep the deterministically better
//     copy). Empty FrameIDs never merge — such an observation is its own
//     frame and is judged immediately.
//
//   - When a verdict commits: when the frame has copies from MaxReceivers
//     distinct gateways, or when its hold expires — Hold seconds after
//     the frame opened, measured on the server's own observation clock
//     (LatestObservation), so an idle stream is aged by AdvanceWindow or
//     the background Flusher's tick. Commits fold the database exactly
//     once per frame, in per-device (UplinkIndex, key) order, and the
//     copies are fused in canonical gateway order — so verdicts and
//     database bytes are a pure function of the copies delivered, not of
//     the delivery schedule (enforced by the TestChaos* harness). The
//     caller collects committed verdicts from CheckBatch's return (which
//     drains the event queue), or from PollWindow / AdvanceWindow /
//     DrainWindow when driving Check — a Check-only caller must poll, or
//     the bounded event queue eventually drops its oldest verdicts.
//
//   - Late copies: a copy arriving after its frame committed (within
//     LateHorizon) reconciles — it merges into the remembered copy set,
//     the estimate is re-fused and re-judged READ-ONLY against the
//     current database, and only a flipped verdict surfaces, as a
//     FrameVerdict with Revised set and PrevVerdict carrying the original
//     decision. The original fold stands; a frame never folds twice.
//     Copies older than LateHorizon re-open the frame (the documented
//     memory/exactness trade).
//
//   - Bounded memory: at most MaxPending frames pend; beyond that the
//     oldest is force-committed with the copies it has
//     (Stats.WindowShed), so a duplicate storm degrades dedup quality,
//     never memory. At most MaxCommitted committed frames are
//     remembered, each for at most LateHorizon; a forgotten frame's
//     storage is reused for a new frame, so a steady stream allocates no
//     per-frame window state. Pending and remembered frames share one
//     frame table: a new frame costs one lookup and one insert, a commit
//     no table operation, forgetting one delete. CheckFrame remains the
//     "every copy already in hand" path and bypasses the window.
//
//   - Per-call publication: while it holds its lock, the window keeps
//     the newest arrival time it ingested and the call's ingest counts,
//     and reads the observation clock as the later of that time and
//     LatestObservation. It publishes the clock and the counters
//     (Observations, DuplicatesSuppressed, WindowMerged,
//     LateObservations) once per Check or CheckBatch call, before the
//     call returns. Readers that do not take the window's lock — Stats,
//     and Sweep, the Flusher's TTL sweep — see them advance at call
//     granularity.
//
//   - What a crash loses: window state is in-memory only and is NOT
//     replayed from disk — pending frames die with the process and their
//     copies are simply never judged (upstream retransmission is the
//     LoRaWAN answer). The database itself loses at most the last
//     un-flushed interval, exactly as below; a recovered server starts
//     with an empty window.
//
// The gateway health tracker (Config.Health) rides the same commit path:
// every committed frame feeds each contributing receiver's
// outlier-rejection outcome and clock skew (vs the frame's median arrival)
// into a rolling per-gateway score, and a persistently sick gateway is
// quarantined out of fusion — its copies still merge and are still
// scored, shadow-judged against the fused estimate it no longer
// influences, so a recovered gateway earns its way back after a clean
// probation streak. If every copy of a frame is from quarantined
// gateways, the filter fails open and the frame is judged anyway.
//
// # Ordering contract
//
// Check and CheckBatch commit database updates under per-device shard
// locks; CheckBatch additionally orders frames by UplinkIndex before
// committing, so a batch's verdicts and the resulting database state are
// independent of the order observations were gathered. Gateways rely on
// this: ProcessBatch runs its PHY stage on an unordered worker pool and
// then commits verdicts in uplink-index order, making batch results
// bit-identical across worker counts. Persistence is an observer of this
// contract, never a participant: a flush serializes shards under read
// locks, so verdicts are unaffected by flusher timing (enforced by
// TestVerdictsUnaffectedByFlusherTiming).
//
// # Scaling
//
// The database is sharded: device IDs hash (FNV-1a) onto DefaultShards
// independently RW-locked partitions, so concurrent Check traffic from many
// gateways serializes only per shard, and read-side traffic — Record,
// Devices, snapshot flushes — shares each lock. Records age: a TTL sweep
// (Config.RecordTTL, driven by the Flusher or EvictExpired) evicts devices
// not observed within the TTL, keyed on BiasRecord.LastSeen and the
// server's own observation clock (max ArrivalTime seen), so a churning
// fleet does not grow the database without bound. A replay verdict still
// refreshes LastSeen: evicting a record mid-attack would let the attacker
// re-enroll as its victim.
//
// # Durability contract
//
// The persistent form is a directory of per-shard snapshot files plus a
// manifest, written exclusively through the atomic protocol: serialize to
// <file>.tmp, fsync, close, rename into place. A shard file ("SLNSNAP2"
// container, see persist.go) holds its records in ascending ID order, each
// a length-prefixed ID and core.BiasRecord's six fields at fixed width
// (48 bytes) under its own CRC32-C, and ends in a whole-file CRC32-C
// trailer; generation numbers increase per flush and the previous
// generation is retained, so for every shard there are normally two
// independently valid snapshots on disk. What survives a crash at each
// point of a flush:
//
//   - Before a shard's rename: that shard's previous generation, intact
//     (the .tmp is swept on the next Snapshotter open).
//   - After a shard's rename, before the manifest write: the new
//     generation — the loader trusts per-file checksums and newest valid
//     generation, not the manifest, which only flags shards found behind
//     it (RecoveryStats.BehindManifest).
//   - Torn or bit-flipped file content: caught by checksum; the loader
//     quarantines the damaged file (never deletes it) and falls back to
//     the shard's previous generation.
//
// Recovery (Snapshotter.Load / NetworkServer.LoadDir) is therefore
// per-shard all-or-nothing: every recovered shard is exactly the state of
// one successful flush, and a crash loses at most each dirty shard's last
// un-flushed interval — never the fleet. A directory whose every
// generation of some shard is corrupt loses only that shard's devices
// (they re-enroll); the rest of the fleet loads. These properties are
// enforced by exhaustive fault injection (internal/faultinject): the crash
// suite kills a flush at every filesystem operation, in both crash-before
// and crash-after modes, and asserts the loader recovers a validated,
// generation-consistent database each time.
//
// Single-file snapshots (SaveFile/LoadFile) use the same container and
// atomic-write protocol. Older formats are read-only, and loading one
// migrates it, because a load marks every shard dirty and the first flush
// rewrites the whole database as version-2 shard files:
//
//   - Version-1 containers ("SLNSNAP1", each record as JSON) — shard
//     files, manifests and SaveFile files written before version 2 —
//     load through LoadDir and LoadFile under the same checks.
//   - Legacy monolithic JSON databases (one object of core.BiasRecord
//     values keyed by device ID, as Save writes and Load reads) load
//     through LoadFile, which auto-detects the format, and through
//     LoadDir, which falls back to a legacy .json in a directory holding
//     no shard file.
//
// # Flushing
//
// The Flusher persists incrementally: mutations mark their shard dirty,
// and each cycle snapshots only dirty shards (under read locks, encoding
// and I/O outside them), retrying failed cycles with bounded exponential
// backoff — a shard stays dirty until some flush of it succeeds, so I/O
// errors defer durability but never corrupt or drop state. Close stops
// the loop and flushes what is still dirty.
//
//softlora:deterministic
package netserver
