package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process CPU time (user + system) consumed so far.
// Unlike wall-clock time it does not grow while the hypervisor steals the
// VM's CPUs, which is what keeps the *_per_cpu_s metrics steady.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// coldStart collects garbage twice, which also empties the sync.Pools the
// capture buffers recycle through, so every timed set-up starts from the
// same state: nothing pooled, nothing left from the previous set-up.
func coldStart() {
	runtime.GC()
	runtime.GC()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of v by linear interpolation
// between closest ranks; v is sorted in place. NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread describes samples by their count and 10th, 50th and 90th
// percentiles.
func spread(what string, v []float64) string {
	return fmt.Sprintf("p10 %.5g, p50 %.5g, p90 %.5g of %d %s", quantile(v, 0.1), quantile(v, 0.5), quantile(v, 0.9), len(v), what)
}

// heapAllocs reads the cumulative count of heap objects the program has
// allocated. The runtime credits small objects a span at a time as each
// per-P cache refills, so one reading around one call can be off by up to
// a span; averages over many calls converge to the true count.
type heapAllocs struct{ s []metrics.Sample }

func newHeapAllocs() *heapAllocs {
	return &heapAllocs{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (h *heapAllocs) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

// gcCPU tracks the share of the Go runtime's CPU time spent on garbage
// collection between two readings.
type gcCPU struct {
	s         []metrics.Sample
	gc0, tot0 float64
}

func startGCCPU() *gcCPU {
	g := &gcCPU{s: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	g.gc0, g.tot0 = g.read()
	return g
}

func (g *gcCPU) read() (gc, total float64) {
	metrics.Read(g.s)
	return g.s[0].Value.Float64(), g.s[1].Value.Float64()
}

// share returns GC CPU over total CPU since startGCCPU.
func (g *gcCPU) share() float64 {
	gc, tot := g.read()
	if tot <= g.tot0 {
		return 0
	}
	return (gc - g.gc0) / (tot - g.tot0)
}

// stealMeter reads the host-wide CPU steal share from /proc/stat: ticks the
// hypervisor gave to other guests while this VM had work, over all ticks.
type stealMeter struct{ steal0, total0 uint64 }

func startSteal() stealMeter {
	s, t := readProcStat()
	return stealMeter{steal0: s, total0: t}
}

func (m stealMeter) share() float64 {
	s, t := readProcStat()
	if t <= m.total0 {
		return 0
	}
	return float64(s-m.steal0) / float64(t-m.total0)
}

// readProcStat returns the aggregate steal and total ticks of the "cpu"
// line (user nice system idle iowait irq softirq steal), or zeros when
// /proc/stat is unavailable.
func readProcStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// envRecord describes the host a run measured on. It is printed with every
// run and never gated: it lets a reader recognise runs the host disturbed.
type envRecord struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"`
	SnapshotFS string  `json:"snapshot_fs"`
}

func newEnvRecord(steal float64, snapshotDir string) envRecord {
	return envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		StealShare: steal,
		SnapshotFS: fsType(snapshotDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
