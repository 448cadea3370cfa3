package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"softlora/internal/faultinject"
	"softlora/internal/lora"
	"softlora/internal/netserver"
)

// server-stream shape: a ~50k-device enrolled fleet, every frame heard by
// three gateways, a few percent of frames replayed, the copies delivered
// through the chaos injector into a windowed server configured like the
// fleet driver and softlora-sim -window-hold.
const (
	serverFleet = 50_000
	// serverFrames is a round's logical frames: about 622,000 delivered
	// observations, four flush intervals and a short tail.
	serverFrames    = 160_000
	serverReceivers = 3
	replayShare     = 0.05
	serverBatch     = 64 // observations per CheckBatch call
	// flushEvery is how many delivered observations pass between two
	// FlushNow calls on the client goroutine, a fixed-work stand-in for the
	// fleet driver's 500 ms flush tick. The fleet driver's streaming pass
	// (cmd/experiments -only fleet -quick: the same 50,000-device fleet,
	// three receivers, the same injected duplicates) ingested 974,812
	// observations in 3.04–3.24 s on a 2-vCPU Xeon VM, 150,000–160,000
	// per tick.
	flushEvery   = 150_000
	windowHold   = 0.05 // seconds on the observation clock
	frameSpacing = 1e-4 // seconds between frames on the observation clock
	enrollFrames = 10
)

// serverCorpus is the server workload's delivery schedule and its truth.
type serverCorpus struct {
	ids      []string
	biasHz   []float64
	schedule []netserver.PHYObservation
	replay   []bool         // per logical frame
	index    map[string]int // FrameID → logical frame
}

// buildServerCorpus generates the logical stream from seed — each frame's
// three copies carry the device bias plus per-link jitter of 30–50 Hz, a
// replay shifts all three by the replayer's bias — and schedules its
// delivery: duplicate bursts, bounded reorder and delays inside the hold,
// never a drop, so every frame must be judged.
func buildServerCorpus(seed int64) *serverCorpus {
	rng := rand.New(rand.NewSource(seed))
	c := &serverCorpus{
		ids:    make([]string, serverFleet),
		biasHz: make([]float64, serverFleet),
		replay: make([]bool, serverFrames),
		index:  make(map[string]int, serverFrames),
	}
	for i := range c.ids {
		c.ids[i] = fmt.Sprintf("fleet-%07d", i)
		c.biasHz[i] = -25.2e3 + rng.Float64()*7.8e3 // −29..−20 ppm at 869.75 MHz
	}
	replayHz := lora.DefaultParams(7).HzFromPPM(replayBiasPPM)
	gateways := make([]string, serverReceivers)
	for g := range gateways {
		gateways[g] = fmt.Sprintf("gw-%02d", g)
	}
	logical := make([]netserver.PHYObservation, 0, serverFrames*serverReceivers)
	for k := 0; k < serverFrames; k++ {
		id := "fr-" + strconv.Itoa(k)
		c.index[id] = k
		dev := rng.Intn(serverFleet)
		shift := 0.0
		if rng.Float64() < replayShare {
			c.replay[k] = true
			shift = replayHz
		}
		for g := range gateways {
			jitter := 30 + rng.Float64()*20
			logical = append(logical, netserver.PHYObservation{
				GatewayID:   gateways[g],
				DeviceID:    c.ids[dev],
				FrameID:     id,
				UplinkIndex: int64(k),
				FBHz:        c.biasHz[dev] + shift + rng.NormFloat64()*jitter,
				JitterHz:    jitter,
				ArrivalTime: 1000 + float64(k)*frameSpacing,
			})
		}
	}
	inj := faultinject.NewTraffic(faultinject.TrafficPlan{
		Seed:          seed + 500,
		DupProb:       0.2,
		DupBurst:      2,
		ReorderWindow: 2 * serverReceivers,
		DelayProb:     0.1,
		MaxDelay:      windowHold / 2,
	},
		func(o netserver.PHYObservation) string { return o.GatewayID },
		func(o netserver.PHYObservation, d float64) netserver.PHYObservation {
			o.ArrivalTime += d
			return o
		})
	c.schedule = inj.Schedule(logical)
	return c
}

// newServer builds the server under test — windowed like the fleet driver
// and softlora-sim -window-hold, health tracker off — and enrolls the fleet.
func (c *serverCorpus) newServer() *netserver.NetworkServer {
	s := netserver.New(netserver.Config{Window: netserver.WindowConfig{
		Hold:         windowHold,
		MaxReceivers: serverReceivers,
	}})
	for i, id := range c.ids {
		s.Enroll(id, c.biasHz[i], enrollFrames)
	}
	return s
}

// roundResult is one server round's measurements.
type roundResult struct {
	wall, cpu  time.Duration // ingest through the flusher's Close
	verdicts   int           // committed, non-revised verdicts
	callLats   []float64     // CheckBatch latencies, µs
	flushes    []time.Duration
	flushTotal time.Duration
	flushAlloc uint64
	recover    time.Duration
	recAllocs  uint64
	pendingMax int
	// falseAlarms and misses count genuine frames judged replay and
	// replayed frames judged genuine; only round 0 judges frames.
	falseAlarms, misses int
	stats               netserver.Stats
	flush               netserver.FlushStats
	digest              string
}

// serverRound runs one round on s, a fresh server from c.newServer: deliver
// the schedule in serverBatch-observation CheckBatch calls with a FlushNow
// every flushEvery observations, drain the window, close the flusher,
// recover the snapshot directory into a fresh server and check the
// recovered database. Round 0, the reference, also judges every frame
// against the truth, as the run's operations; a later round is checked by
// reproducing round 0's digest (see checkRepeat), so the run's operation
// counts are a pure function of the seed. tr, when set, records a span per
// call.
func serverRound(r *run, c *serverCorpus, s *netserver.NetworkServer, dir string, tr *tracer, round int64) (roundResult, error) {
	var rr roundResult
	// The background tick never fires within a round; FlushNow drives
	// every flush.
	fl, err := netserver.StartFlusher(s, dir, netserver.FlusherOptions{Interval: time.Hour})
	if err != nil {
		return rr, err
	}
	allocs := newHeapAllocs()
	events := make([]netserver.FrameVerdict, 0, serverFrames+serverFrames/8)
	rr.callLats = make([]float64, 0, len(c.schedule)/serverBatch+1)

	// Each round's timed window starts from a collected heap, so one
	// round's garbage is not charged to the next and the heap peak repeats.
	runtime.GC()
	w0, c0 := time.Now(), cpuTime()
	sinceFlush := 0
	for i, call := 0, int64(0); i < len(c.schedule); i, call = i+serverBatch, call+1 {
		chunk := c.schedule[i:min(i+serverBatch, len(c.schedule))]
		sp := tr.begin("netserver.CheckBatch", round<<32|call, -1)
		t := time.Now()
		v, err := s.CheckBatch(chunk)
		rr.callLats = append(rr.callLats, float64(time.Since(t).Nanoseconds())/1e3)
		tr.end(sp)
		if err != nil {
			fl.Close()
			return rr, fmt.Errorf("CheckBatch: %w", err)
		}
		events = append(events, v...)
		if tr != nil {
			rr.pendingMax = max(rr.pendingMax, s.PendingFrames())
		}
		if sinceFlush += len(chunk); sinceFlush >= flushEvery {
			sinceFlush = 0
			sp := tr.begin("netserver.FlushNow", round<<32|call, -1)
			a0, t := allocs.read(), time.Now()
			err := fl.FlushNow()
			d := time.Since(t)
			rr.flushAlloc += allocs.read() - a0
			tr.end(sp)
			if err != nil {
				fl.Close()
				return rr, fmt.Errorf("FlushNow: %w", err)
			}
			rr.flushes = append(rr.flushes, d)
			rr.flushTotal += d
		}
	}
	sp := tr.begin("netserver.DrainWindow", round<<32, -1)
	events = append(events, s.DrainWindow()...)
	tr.end(sp)
	sp = tr.begin("netserver.Flusher.Close", round<<32, -1)
	err = fl.Close()
	tr.end(sp)
	rr.wall, rr.cpu = time.Since(w0), cpuTime()-c0
	if err != nil {
		return rr, fmt.Errorf("closing the flusher: %w", err)
	}
	rr.stats = s.Stats()
	rr.flush = fl.Stats()

	runtime.GC() // as above, for the recovery's allocations
	fresh := netserver.New(netserver.Config{})
	sp = tr.begin("netserver.LoadDir", round<<32, -1)
	a0, t := allocs.read(), time.Now()
	_, err = fresh.LoadDir(nil, dir)
	rr.recover = time.Since(t)
	rr.recAllocs = allocs.read() - a0
	tr.end(sp)
	if err != nil {
		return rr, fmt.Errorf("LoadDir: %w", err)
	}
	// Each round leaves no snapshots behind, so the next one starts on an
	// empty directory and its timed window never follows a mass delete.
	if err := os.RemoveAll(dir); err != nil {
		return rr, err
	}
	if err := checkRecovered(s, fresh); err != nil {
		r.invalidate("recovery", err)
	}

	if round == 0 {
		judgeFrames(r, c, events, &rr)
	}
	d := newDigest()
	for _, ev := range events {
		d.frame(ev)
		if !ev.Revised {
			rr.verdicts++
		}
	}
	if err := d.database(s); err != nil {
		return rr, err
	}
	rr.digest = d.sum()
	return rr, nil
}

// judgeFrames checks every logical frame's committed verdicts against the
// truth, counting each frame as one operation of the run.
func judgeFrames(r *run, c *serverCorpus, events []netserver.FrameVerdict, rr *roundResult) {
	ledger := newFrameLedger(c.index)
	if err := ledger.add(events); err != nil {
		r.invalidate("frames", err)
	}
	for k, replay := range c.replay {
		reason := ledger.checkFrame(k, replay)
		r.op(reason)
		if reason == failVerdict && replay {
			rr.misses++
		} else if reason == failVerdict {
			rr.falseAlarms++
		}
	}
}

// checkRepeat invalidates the run when a round's outputs or counters differ
// from round 0's: every round replays the same schedule into a fresh server.
func checkRepeat(r *run, round int64, rr, first roundResult) {
	if rr.digest != first.digest {
		r.invalidate("determinism", fmt.Errorf("round %d digest %s differs from round 0's %s", round, rr.digest, first.digest))
	}
	if rr.stats != first.stats {
		r.invalidate("determinism", fmt.Errorf("round %d counters %+v differ from round 0's %+v", round, rr.stats, first.stats))
	}
}

// runServer is the server-stream run. Set-up generates the stream and its
// delivery schedule and builds the enrolled server round 0 runs on. Round 0
// warms the process and fixes the reference digest; every later round must
// reproduce it, since each replays the same schedule into a fresh server.
func runServer(r *run) error {
	var c *serverCorpus
	var s *netserver.NetworkServer
	for i := 0; i < setupRepeats; i++ {
		c, s = nil, nil
		coldStart()
		start := cpuTime()
		c = buildServerCorpus(r.seed)
		s = c.newServer()
		r.setupTimes = append(r.setupTimes, (cpuTime() - start).Seconds())
	}
	dir := filepath.Join(r.dir, "snapshots")
	defer os.RemoveAll(dir)

	first, err := serverRound(r, c, s, dir, nil, 0)
	if err != nil {
		return err
	}
	r.digest = first.digest
	if r.trace {
		return traceServer(r, c, dir, first)
	}

	var perWall, perCPU, lats, recovers []float64
	steal := startSteal()
	start := time.Now()
	for round := int64(1); time.Since(start) < r.seconds; round++ {
		rr, err := serverRound(r, c, c.newServer(), dir, nil, round)
		if err != nil {
			return err
		}
		checkRepeat(r, round, rr, first)
		perWall = append(perWall, float64(rr.verdicts)/rr.wall.Seconds())
		perCPU = append(perCPU, float64(rr.verdicts)/rr.cpu.Seconds())
		lats = append(lats, rr.callLats...)
		recovers = append(recovers, rr.recover.Seconds())
	}
	r.steal = steal.share()
	// A round is the sample: its flushes and garbage collections land at
	// the same points every round, where a flush interval's share of them
	// varies. Its memory-bound work does not follow the gateway's
	// calibration kernel (see README.md), so its CPU time is not rescaled.
	r.set("ops_per_cpu_s", median(perCPU), "1/s")
	r.report("verdicts_per_s", median(perWall), "1/s", spread("rounds", perWall))
	r.report("verdicts_per_cpu_s", median(perCPU), "1/s", "gated as ops_per_cpu_s, "+spread("rounds", perCPU))
	r.report("ingest_p50_us", median(lats), "us", spread("CheckBatch calls", lats))
	r.report("recover_s", median(recovers), "s", fmt.Sprintf("median of %d rounds", len(recovers)))
	return nil
}

// traceServer is the traced server run: it alternates traced and untraced
// rounds — their difference is the tracing overhead — and reports the
// server's layers from the traced ones.
func traceServer(r *run, c *serverCorpus, dir string, first roundResult) error {
	tr := newTracer()
	var traced []roundResult
	var untracedWall, tracedWall time.Duration
	var untracedVerdicts, tracedVerdicts int
	var untracedLats, untracedRates []float64
	gc := startGCCPU()
	steal := startSteal()
	start := time.Now()
	for round := int64(1); time.Since(start) < r.seconds || untracedVerdicts == 0; round++ {
		trc := tr
		if round%2 == 0 {
			trc = nil
		}
		rr, err := serverRound(r, c, c.newServer(), dir, trc, round)
		if err != nil {
			return err
		}
		checkRepeat(r, round, rr, first)
		if trc != nil {
			traced = append(traced, rr)
			tracedWall += rr.wall
			tracedVerdicts += rr.verdicts
		} else {
			untracedWall += rr.wall
			untracedVerdicts += rr.verdicts
			untracedLats = append(untracedLats, rr.callLats...)
			untracedRates = append(untracedRates, float64(rr.verdicts)/rr.wall.Seconds())
		}
	}
	r.steal = steal.share()
	gcShare := gc.share()

	tot := tr.totals()
	var obs, flushes int
	var wall, flushTotal time.Duration
	var flushAllocs, recAllocs uint64
	var flushMs, recS, pending []float64
	for _, rr := range traced {
		obs += len(c.schedule)
		wall += rr.wall
		flushTotal += rr.flushTotal
		flushAllocs += rr.flushAlloc
		flushes += len(rr.flushes)
		for _, d := range rr.flushes {
			flushMs = append(flushMs, d.Seconds()*1e3)
		}
		recAllocs += rr.recAllocs
		recS = append(recS, rr.recover.Seconds())
		pending = append(pending, float64(rr.pendingMax))
	}
	ingest := tot["netserver.CheckBatch"]
	r.set("netserver.ingest_us_per_obs", ingest.Self.Seconds()*1e6/float64(obs), "us")
	r.set("netserver.ingest.allocs_per_obs", float64(ingest.Allocs)/float64(obs), "allocs/obs")
	r.set("netserver.pending_frames_max", quantile(pending, 1), "count")
	r.set("netserver.false_alarms", 1e4*float64(first.falseAlarms)/serverFrames, "1/10k")
	r.set("netserver.misses", 1e4*float64(first.misses)/serverFrames, "1/10k")
	st := first.stats
	r.set("netserver.dedup_ratio", float64(st.Observations-st.FramesChecked)/float64(st.Observations), "share")
	r.set("netserver.late_observations", float64(st.LateObservations), "count")
	r.set("netserver.verdicts_revised", float64(st.VerdictsRevised), "count")
	r.set("netserver.window_shed", float64(st.WindowShed), "count")
	r.set("netserver.events_dropped", float64(st.WindowEventsDropped), "count")
	r.set("netserver.flush_ms", median(flushMs), "ms")
	r.set("netserver.flush.share", flushTotal.Seconds()/wall.Seconds(), "share")
	r.set("netserver.flush.us_per_device", median(flushMs)*1e3/serverFleet, "us")
	r.set("netserver.flush.allocs_per_device", float64(flushAllocs)/float64(flushes)/serverFleet, "allocs/device")
	r.set("netserver.flush.shards_per_flush", float64(first.flush.ShardsFlushed)/float64(first.flush.Cycles), "count")
	r.set("netserver.recover.us_per_device", median(recS)*1e6/serverFleet, "us")
	r.set("netserver.recover.allocs_per_device", float64(recAllocs)/float64(len(traced))/serverFleet, "allocs/device")
	r.set("netserver.recover_s", median(recS), "s")
	bytes, err := snapshotBytes(c, filepath.Join(r.dir, "db.snap"))
	if err != nil {
		return err
	}
	r.set("netserver.snapshot_bytes_per_device", bytes/serverFleet, "B/device")
	r.set("netserver.verdicts_per_s", median(untracedRates), "1/s")
	r.set("netserver.ingest_p50_us", median(untracedLats), "us")
	r.set("netserver.ingest_p99_us", quantile(untracedLats, 0.99), "us")
	r.set("netserver.ingest.samples", float64(len(untracedLats)), "count")
	r.set("runtime.gc_cpu_share", gcShare, "share")
	r.set("trace.overhead_share",
		(tracedWall.Seconds()/float64(tracedVerdicts))/(untracedWall.Seconds()/float64(untracedVerdicts))-1, "share")
	r.tracer = tr
	return nil
}

// snapshotBytes returns the size of the enrolled fleet's database written
// as one checksummed snapshot container, the footprint
// BenchmarkSnapshotRoundTrip reports.
func snapshotBytes(c *serverCorpus, path string) (float64, error) {
	if err := c.newServer().SaveFile(nil, path); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}
