package netserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softlora/internal/core"
	"softlora/internal/faultinject"
	"softlora/internal/vfs"
)

func TestFlusherPersistsInBackground(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	f, err := StartFlusher(s, dir, FlusherOptions{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	populate(s, 50, 11)
	deadline := time.Now().Add(5 * time.Second)
	for {
		fresh := New(Config{})
		if _, err := fresh.LoadDir(nil, dir); err != nil {
			t.Fatal(err)
		}
		if fresh.Devices() == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never persisted the fleet (on disk: %d devices)", fresh.Devices())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Cycles == 0 || st.ShardsFlushed == 0 {
		t.Errorf("flusher stats = %+v", st)
	}
}

func TestFlusherCloseFlushesOutstandingDirtyShards(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	// Interval far beyond the test's lifetime: only Close can flush.
	f, err := StartFlusher(s, dir, FlusherOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	populate(s, 30, 12)
	want := dump(s)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "after Close final flush")
}

func TestFlusherRetriesWithBackoffThenConverges(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	populate(s, 40, 13)
	want := dump(s)
	inj := faultinject.New(vfs.OS{})
	// The first three sync ops fail: the first flush attempt dies, two
	// backoff retries also hit faults, the third retry goes through.
	inj.FailAt(faultinject.OpSync, 1, faultinject.KindFail)
	inj.FailAt(faultinject.OpSync, 2, faultinject.KindENOSPC)
	inj.FailAt(faultinject.OpSync, 3, faultinject.KindFail)
	f, err := StartFlusher(s, dir, FlusherOptions{
		Interval: time.Hour, // driven manually via FlushNow
		FS:       inj,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FlushNow(); err != nil {
		t.Fatalf("flush did not converge through retries: %v", err)
	}
	st := f.Stats()
	if st.Errors != 3 || st.Retries != 3 || st.GaveUp != 0 {
		t.Errorf("stats = %+v, want 3 errors / 3 retries / 0 give-ups", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "after retried flush")
}

func TestFlusherGivesUpAfterBoundedRetriesThenRecovers(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	populate(s, 20, 14)
	want := dump(s)
	inj := faultinject.New(vfs.OS{})
	// More consecutive faults than the retry budget: the cycle must give
	// up (bounded, not infinite) and leave the shards dirty.
	for i := 1; i <= 20; i++ {
		inj.FailAt(faultinject.OpCreate, i, faultinject.KindENOSPC)
	}
	f, err := StartFlusher(s, dir, FlusherOptions{
		Interval:   time.Hour,
		FS:         inj,
		Backoff:    time.Millisecond,
		MaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FlushNow(); err == nil {
		t.Fatal("flush succeeded through a disk that always fails")
	}
	if st := f.Stats(); st.GaveUp != 1 {
		t.Errorf("stats = %+v, want one gave-up cycle", st)
	}
	// The "disk" heals (faults exhausted by the failed attempts? no —
	// Create faults 4..20 still armed; clear them).
	inj.Reset()
	if err := f.FlushNow(); err != nil {
		t.Fatalf("flush after disk recovery: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, want, dump(fresh), "after disk recovery")
}

func TestEvictExpired(t *testing.T) {
	s := New(Config{RecordTTL: 100})
	// Three devices: fresh, stale, and never-stamped (legacy).
	s.Enroll("fresh", -22000, 3)
	s.Enroll("stale", -21000, 3)
	s.Enroll("legacy", -20000, 3)
	s.Check(PHYObservation{DeviceID: "fresh", FBHz: -22000, ArrivalTime: 950})
	s.Check(PHYObservation{DeviceID: "stale", FBHz: -21000, ArrivalTime: 700})
	// First sweep at t=1000: stale (last seen 700, horizon 900) goes;
	// legacy (never stamped) is granted a fresh TTL instead of dying.
	if n := s.EvictExpired(1000, 100); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, ok := s.Record("stale"); ok {
		t.Error("stale record survived the sweep")
	}
	if _, ok := s.Record("legacy"); !ok {
		t.Error("legacy (unstamped) record was evicted on its first sweep")
	}
	if _, ok := s.Record("fresh"); !ok {
		t.Error("fresh record was evicted")
	}
	// Second sweep: fresh (last seen 950) ages out against horizon 980,
	// the grace-stamped legacy record (stamped 1000) survives.
	if n := s.EvictExpired(1080, 100); n != 1 {
		t.Errorf("second sweep evicted %d, want 1 (the t=950 record)", n)
	}
	if _, ok := s.Record("legacy"); !ok {
		t.Error("grace-stamped legacy record evicted early")
	}
	// Third sweep: the grace stamp itself ages out.
	if n := s.EvictExpired(1150, 100); n != 1 {
		t.Errorf("third sweep evicted %d, want 1 (the stamped legacy record)", n)
	}
	if st := s.Stats(); st.Evicted != 3 {
		t.Errorf("Stats.Evicted = %d, want 3", st.Evicted)
	}
	// TTL 0 disables aging entirely.
	if n := s.EvictExpired(1e9, 0); n != 0 {
		t.Errorf("ttl=0 sweep evicted %d", n)
	}
}

func TestSweepUsesObservationClock(t *testing.T) {
	s := New(Config{RecordTTL: 50})
	s.Check(PHYObservation{DeviceID: "old", FBHz: -22000, ArrivalTime: 10})
	s.Check(PHYObservation{DeviceID: "new", FBHz: -21000, ArrivalTime: 100})
	if got := s.LatestObservation(); got != 100 {
		t.Fatalf("LatestObservation = %v", got)
	}
	if n := s.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1 (the t=10 record against horizon 50)", n)
	}
	if _, ok := s.Record("new"); !ok {
		t.Error("current record evicted")
	}
}

func TestEvictionPersistsThroughFlush(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{RecordTTL: 100})
	s.Check(PHYObservation{DeviceID: "old", FBHz: -22000, ArrivalTime: 10})
	s.Check(PHYObservation{DeviceID: "new", FBHz: -21000, ArrivalTime: 500})
	sn, err := NewSnapshotter(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.FlushDirty(s); err != nil {
		t.Fatal(err)
	}
	if n := s.Sweep(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// The eviction dirtied the shard; the next flush must persist it.
	if n, err := sn.FlushDirty(s); err != nil || n == 0 {
		t.Fatalf("post-eviction flush wrote %d shards (err %v)", n, err)
	}
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Record("old"); ok {
		t.Error("evicted record resurrected from disk")
	}
	if _, ok := fresh.Record("new"); !ok {
		t.Error("live record lost")
	}
}

func TestSweepGraceStampPersists(t *testing.T) {
	// Regression: the sweep stamped a never-seen record's LastSeen with
	// the sweep time (the TTL grace) without dirtying its shard, so the
	// stamp never reached disk and every restart granted the grace again.
	dir := t.TempDir()
	s := New(Config{RecordTTL: 100})
	s.Enroll("offline", -22000, 10)
	f, err := StartFlusher(s, dir, FlusherOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FlushNow(); err != nil {
		t.Fatal(err)
	}
	s.observeTime(50)
	s.Sweep()
	if rec, _ := s.Record("offline"); rec.LastSeen != 50 {
		t.Fatalf("live LastSeen = %v, want the sweep's stamp 50", rec.LastSeen)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	if rec, _ := fresh.Record("offline"); rec.LastSeen != 50 {
		t.Errorf("recovered LastSeen = %v, want 50", rec.LastSeen)
	}
	if live, got := saveBytes(t, s), saveBytes(t, fresh); !bytes.Equal(live, got) {
		t.Errorf("recovered database differs from the live one:\n%s\nwant\n%s", got, live)
	}
}

// TestVerdictsUnaffectedByFlusherTiming runs the same observation sequence
// against a bare server and against one with an aggressive background
// flusher (and fault-injected disk trouble): verdicts and final records
// must be bit-identical — persistence is an observer, never a participant.
func TestVerdictsUnaffectedByFlusherTiming(t *testing.T) {
	obs := make([]PHYObservation, 0, 600)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 600; i++ {
		id := fmt.Sprintf("dev-%d", rng.Intn(20))
		fb := -22000 + rng.NormFloat64()*60
		if rng.Intn(15) == 0 {
			fb -= 700
		}
		obs = append(obs, PHYObservation{DeviceID: id, FBHz: fb, ArrivalTime: float64(i)})
	}
	bare := New(Config{})
	wantVerdicts := make([]core.Verdict, len(obs))
	for i, o := range obs {
		wantVerdicts[i] = bare.Check(o)
	}

	inj := faultinject.New(vfs.OS{})
	inj.Probabilistic(rand.New(rand.NewSource(5)), 0.2,
		faultinject.KindShortWrite, faultinject.KindENOSPC, faultinject.KindFail)
	flushed := New(Config{})
	f, err := StartFlusher(flushed, t.TempDir(), FlusherOptions{
		Interval: time.Millisecond,
		FS:       inj,
		Backoff:  time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if v := flushed.Check(o); v != wantVerdicts[i] {
			t.Fatalf("obs %d: verdict %v with flusher, %v without", i, v, wantVerdicts[i])
		}
		if i%100 == 0 {
			time.Sleep(2 * time.Millisecond) // let flush cycles interleave
		}
	}
	_ = f.Close() // faults may leave the final flush failing; state check below
	equalDB(t, dump(bare), dump(flushed), "records with vs without flusher")
}

// TestConcurrentCheckBatchFlushEvict is the -race exercise: many gateways
// hammer CheckBatch while the background flusher snapshots shards, the TTL
// sweep evicts, and readers poll Record/Devices/Stats — no deadlocks, no
// data races, and the loop terminates.
func TestConcurrentCheckBatchFlushEvict(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{RecordTTL: 50})
	f, err := StartFlusher(s, dir, FlusherOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const gateways = 8
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 50; round++ {
				batch := make([]PHYObservation, 0, 16)
				for i := 0; i < 16; i++ {
					batch = append(batch, PHYObservation{
						GatewayID:   fmt.Sprintf("gw-%d", g),
						DeviceID:    fmt.Sprintf("dev-%d", rng.Intn(200)),
						FrameID:     fmt.Sprintf("f-%d-%d-%d", g, round, i),
						UplinkIndex: int64(round*16 + i),
						FBHz:        -22000 + rng.NormFloat64()*50,
						ArrivalTime: float64(round*16 + i),
					})
				}
				if _, err := s.CheckBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent readers and sweeps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Record(fmt.Sprintf("dev-%d", i%200))
			s.Devices()
			s.Stats()
			s.Sweep()
		}
	}()
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The final on-disk state equals the final in-memory state.
	fresh := New(Config{})
	if _, err := fresh.LoadDir(nil, dir); err != nil {
		t.Fatal(err)
	}
	equalDB(t, dump(s), dump(fresh), "after concurrent hammer")
}
