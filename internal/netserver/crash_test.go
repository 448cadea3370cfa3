package netserver

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"softlora/internal/core"
	"softlora/internal/faultinject"
	"softlora/internal/vfs"
)

// crashFixture builds the two-generation state every crash test replays:
// a fleet flushed cleanly at generation 1, then a deterministic subset of
// devices updated (dirtying some shards but not all) ready to flush as
// generation 2. Both database states are returned for comparison.
func crashFixture(t *testing.T, dir string) (s *NetworkServer, gen1, gen2 map[string]core.BiasRecord) {
	t.Helper()
	s = New(Config{Shards: 8})
	populate(s, 120, 99)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	gen1 = dump(s)
	// Update every third device — several shards dirty, several clean.
	for i := 0; i < 120; i += 3 {
		id := fmt.Sprintf("dev-%05d", i)
		s.Check(PHYObservation{DeviceID: id, FBHz: gen1[id].Mean + 15, ArrivalTime: 5000 + float64(i)})
	}
	gen2 = dump(s)
	return s, gen1, gen2
}

// assertRecovered loads dir into a fresh server and asserts the recovered
// database is exactly a per-shard mix of the two flushed generations:
// validated clean, every device present, every record bit-equal to its
// gen-1 or gen-2 state, and within one shard all records from the same
// generation (a shard file installs atomically or not at all).
func assertRecovered(t *testing.T, dir string, gen1, gen2 map[string]core.BiasRecord, label string) RecoveryStats {
	t.Helper()
	fresh := New(Config{Shards: 8})
	stats, err := fresh.LoadDir(nil, dir)
	if err != nil {
		t.Fatalf("%s: recovery load failed: %v", label, err)
	}
	got := dump(fresh)
	if err := core.ValidateDatabase(toPtr(got)); err != nil {
		t.Fatalf("%s: recovered database invalid: %v", label, err)
	}
	if len(got) != len(gen1) {
		t.Fatalf("%s: recovered %d devices, want %d", label, len(got), len(gen1))
	}
	// shardGen[i] = 1, 2, or 0 (undecided: shard's records identical in
	// both generations).
	shardGen := make(map[uint32]int)
	for id, rec := range got {
		sh := fnv32a(id) & 7
		oldRec, newRec := gen1[id], gen2[id]
		var g int
		switch {
		case rec == oldRec && rec == newRec:
			continue // unchanged device decides nothing
		case rec == newRec:
			g = 2
		case rec == oldRec:
			g = 1
		default:
			t.Fatalf("%s: device %s = %+v, matching neither generation (%+v / %+v)",
				label, id, rec, oldRec, newRec)
		}
		if prev, ok := shardGen[sh]; ok && prev != g {
			t.Fatalf("%s: shard %d torn between generations %d and %d", label, sh, prev, g)
		}
		shardGen[sh] = g
	}
	return stats
}

// TestCrashConsistencyAtEveryFaultPoint is the exhaustive crash
// enumeration: a generation-2 flush is killed at every filesystem
// operation — both crash-before (the op never happens) and crash-after
// (the op lands, nothing later does, which at a rename is the torn-rename
// case) — and after every kill the loader must recover a consistent
// database: each shard wholly at generation 1 or wholly at generation 2,
// never between, never invalid.
func TestCrashConsistencyAtEveryFaultPoint(t *testing.T) {
	// Measure the op count of one clean flush.
	probeDir := t.TempDir()
	s, _, _ := crashFixture(t, probeDir)
	probe := faultinject.New(vfs.OS{})
	sn, err := NewSnapshotter(probe, probeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("flush took only %d filesystem ops — fixture not dirtying enough shards", total)
	}

	for _, after := range []bool{false, true} {
		mode := "crash-before"
		if after {
			mode = "crash-after"
		}
		for k := 1; k <= total; k++ {
			label := fmt.Sprintf("%s op %d/%d", mode, k, total)
			dir := t.TempDir()
			s, gen1, gen2 := crashFixture(t, dir)
			inj := faultinject.New(vfs.OS{})
			if after {
				inj.CrashAfter(k)
			} else {
				inj.CrashAt(k)
			}
			sn, err := NewSnapshotter(inj, dir)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			_, err = sn.FlushDirty(s)
			if k < total && err == nil {
				t.Fatalf("%s: flush survived a crash point", label)
			}
			if !after && err == nil {
				t.Fatalf("%s: flush reported success through a crash", label)
			}
			stats := assertRecovered(t, dir, gen1, gen2, label)
			if stats.ShardsLost > 0 {
				t.Fatalf("%s: %d shards lost — generation 1 must always survive", label, stats.ShardsLost)
			}
		}
	}
}

// TestCrashRecoveryResumesFlush proves the bounded-loss contract's other
// half: after a crash, a restarted flusher (fresh Snapshotter over the
// same directory) re-flushes the still-dirty shards and converges the
// directory to generation-2 state.
func TestCrashRecoveryResumesFlush(t *testing.T) {
	dir := t.TempDir()
	s, _, gen2 := crashFixture(t, dir)
	inj := faultinject.New(vfs.OS{})
	inj.CrashAt(7) // mid-flight: some shards installed, some not
	sn, err := NewSnapshotter(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err == nil {
		t.Fatal("flush survived the crash point")
	}
	// The server survives in-process here (the crash was the disk path,
	// not the process): a fresh Snapshotter must finish the job.
	sn2, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn2.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{Shards: 8})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, gen2, dump(fresh), "after resumed flush")
}

// TestFaultRecoverableErrorsRetrySucceeds drives the recoverable fault
// kinds — short write, ENOSPC, fsync failure, failed rename — through a
// flush: the first attempt fails, the shard stays dirty, and a retry
// (what the background Flusher does with backoff) converges to
// generation-2 state with nothing lost.
func TestFaultRecoverableErrorsRetrySucceeds(t *testing.T) {
	cases := []struct {
		name string
		op   faultinject.Op
		kind faultinject.Kind
	}{
		{"short-write", faultinject.OpWrite, faultinject.KindShortWrite},
		{"enospc", faultinject.OpWrite, faultinject.KindENOSPC},
		{"fsync-fail", faultinject.OpSync, faultinject.KindFail},
		{"rename-fail", faultinject.OpRename, faultinject.KindFail},
		{"close-fail", faultinject.OpClose, faultinject.KindFail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, gen1, gen2 := crashFixture(t, dir)
			inj := faultinject.New(vfs.OS{})
			inj.FailAt(tc.op, 2, tc.kind) // second occurrence: mid-flush
			sn, err := NewSnapshotter(inj, dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sn.FlushDirty(s); err == nil {
				t.Fatal("flush ignored the injected fault")
			}
			// Mid-failure state must already be recoverable.
			assertRecovered(t, dir, gen1, gen2, tc.name+" before retry")
			// Retry through the same (now clean) injector converges.
			if _, err := sn.FlushDirty(s); err != nil {
				t.Fatalf("retry failed: %v", err)
			}
			fresh := New(Config{Shards: 8})
			if _, err := fresh.LoadDir(nil, dir); err != nil {
				t.Fatal(err)
			}
			equalDB(t, gen2, dump(fresh), tc.name+" after retry")
		})
	}
}

// TestFaultBitFlipCaughtOnLoad writes generation 2 through an injector
// that silently flips one bit in one shard file: the flush "succeeds", the
// loader must catch the corruption by checksum, quarantine the file and
// fall back to that shard's generation 1.
func TestFaultBitFlipCaughtOnLoad(t *testing.T) {
	// Enumerate several write ops so the flip lands in different shards
	// and offsets (including the manifest — op counts differ per layout).
	for k := 1; k <= 10; k++ {
		dir := t.TempDir()
		s, gen1, gen2 := crashFixture(t, dir)
		inj := faultinject.New(vfs.OS{})
		inj.FailAt(faultinject.OpWrite, k, faultinject.KindBitFlip)
		sn, err := NewSnapshotter(inj, dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sn.FlushDirty(s); err != nil {
			t.Fatalf("write %d: bit flip should be silent at flush time, got %v", k, err)
		}
		if inj.Injected() == 0 {
			// Fewer write ops than k: flush layout exhausted.
			break
		}
		label := fmt.Sprintf("bit flip in write %d", k)
		stats := assertRecovered(t, dir, gen1, gen2, label)
		if stats.ShardsLost > 0 {
			t.Fatalf("%s: shard lost despite intact generation 1", label)
		}
		if stats.FilesQuarantined == 0 && stats.ShardsRecoveredOlder == 0 {
			// The flip may have hit the manifest (self-healing: loader
			// scans) — then nothing is quarantined. Otherwise a shard
			// file was hit and must have been quarantined.
			if errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s: corruption neither quarantined nor tolerated: %+v", label, stats)
			}
		}
	}
}

// TestNonFiniteEnrollmentKeepsFlushing pins that one non-finite enrollment
// cannot stop durability: Enroll stores nothing for it, so every shard
// still flushes and a restart recovers the whole fleet.
func TestNonFiniteEnrollmentKeepsFlushing(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Shards: 4})
	populate(s, 40, 7)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.Enroll("bad", bad, 10)
		s.Enroll("dev-00003", bad, 10)
	}
	if _, ok := s.Record("bad"); ok {
		t.Error("a non-finite enrollment stored a record")
	}
	want := dump(s)
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatalf("flush after a non-finite enrollment: %v", err)
	}
	fresh := New(Config{Shards: 4})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Devices(); got != 40 {
		t.Fatalf("recovered %d devices, want 40", got)
	}
	equalDB(t, want, dump(fresh), "after a non-finite enrollment")
}
