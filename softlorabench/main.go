// Command softlorabench is the SoftLoRa benchmark: it runs one named
// workload from inputs generated from a seed through the program's public
// entry points, checks every output against the generator's ground truth,
// and prints the run's metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	softlorabench --workload gateway-aic --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run of
// the same workload that times each layer's calls and reports the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares one metric and the workloads that exercise it.
type metricDef struct {
	name, unit string
	// server marks a metric only server-stream exercises, gateway one only
	// the gateway workloads exercise; a workload reports the other kind's
	// metrics as 0.
	server, gateway bool
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_cpu_s", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "correct_share", unit: "share"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{name: "sdr.downconvert_us", unit: "us", gateway: true},
	{name: "core.onset_us", unit: "us", gateway: true},
	{name: "core.fb_us", unit: "us", gateway: true},
	{name: "netserver.check_us", unit: "us", gateway: true},
	{name: "softlora.batch_workers1_us", unit: "us", gateway: true},
	{name: "softlora.residual_share", unit: "share", gateway: true},
	{name: "sdr.allocs_per_uplink", unit: "allocs/uplink", gateway: true},
	{name: "core.onset.allocs_per_uplink", unit: "allocs/uplink", gateway: true},
	{name: "core.fb.allocs_per_uplink", unit: "allocs/uplink", gateway: true},
	{name: "softlora.allocs_per_uplink", unit: "allocs/uplink", gateway: true},
	{name: "core.onset.hit_ratio", unit: "share", gateway: true},
	{name: "core.fb.abs_err_hz_p50", unit: "Hz", gateway: true},
	{name: "core.fb.abs_err_hz_p99", unit: "Hz", gateway: true},
	{name: "netserver.false_alarms", unit: "1/10k"},
	{name: "netserver.misses", unit: "1/10k"},
	{name: "radio.render_us", unit: "us", gateway: true},
	{name: "softlora.uplinks_per_s", unit: "1/s", gateway: true},
	{name: "softlora.batch_p50_ms", unit: "ms", gateway: true},
	{name: "softlora.batch_p99_ms", unit: "ms", gateway: true},
	{name: "softlora.batch.samples", unit: "count", gateway: true},
	{name: "netserver.ingest_us_per_obs", unit: "us", server: true},
	{name: "netserver.ingest.allocs_per_obs", unit: "allocs/obs", server: true},
	{name: "netserver.pending_frames_max", unit: "count", server: true},
	{name: "netserver.dedup_ratio", unit: "share", server: true},
	{name: "netserver.late_observations", unit: "count", server: true},
	{name: "netserver.verdicts_revised", unit: "count", server: true},
	{name: "netserver.window_shed", unit: "count", server: true},
	{name: "netserver.events_dropped", unit: "count", server: true},
	{name: "netserver.flush_ms", unit: "ms", server: true},
	{name: "netserver.flush.share", unit: "share", server: true},
	{name: "netserver.flush.us_per_device", unit: "us", server: true},
	{name: "netserver.flush.allocs_per_device", unit: "allocs/device", server: true},
	{name: "netserver.flush.shards_per_flush", unit: "count", server: true},
	{name: "netserver.recover_s", unit: "s", server: true},
	{name: "netserver.recover.us_per_device", unit: "us", server: true},
	{name: "netserver.recover.allocs_per_device", unit: "allocs/device", server: true},
	{name: "netserver.snapshot_bytes_per_device", unit: "B/device", server: true},
	{name: "netserver.verdicts_per_s", unit: "1/s", server: true},
	{name: "netserver.ingest_p50_us", unit: "us", server: true},
	{name: "netserver.ingest_p99_us", unit: "us", server: true},
	{name: "netserver.ingest.samples", unit: "count", server: true},
	{name: "ops.failed_share", unit: "share"},
	{name: "runtime.gc_cpu_share", unit: "share"},
	{name: "trace.overhead_share", unit: "share"},
}

// workloads maps each workload name to its run and whether it is a
// gateway workload.
var workloads = map[string]struct {
	run     func(*run) error
	gateway bool
}{
	"gateway-aic":    {func(r *run) error { return runGateway(r, gatewayAIC) }, true},
	"gateway-lowsnr": {func(r *run) error { return runGateway(r, gatewayLowSNR) }, true},
	"server-stream":  {runServer, false},
}

// run is one benchmark invocation's state and outcome.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir is the run's scratch directory inside the checkout.
	dir string

	attempted, failed int64
	failures          map[string]int64
	metrics           map[string]metric
	setupTimes        []float64
	steal             float64
	digest            string
	tracer            *tracer
	// invalid holds the checks that invalidate the run, by name.
	invalid []string
}

// op counts one operation; reason is the check it failed, or "".
func (r *run) op(reason string) {
	r.attempted++
	if reason != "" {
		r.failed++
		r.failures[reason]++
	}
}

// invalidate marks the run invalid: it names the failed check and exits
// non-zero once the run ends.
func (r *run) invalidate(check string, err error) {
	msg := check + ": " + err.Error()
	fmt.Fprintln(os.Stderr, "invalid run:", msg)
	r.invalid = append(r.invalid, msg)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// report prints a named figure on the human-readable part of the output.
func (r *run) report(name string, v float64, unit, note string) {
	fmt.Printf("  %-40s %14.6g %-6s %s\n", name, v, unit, note)
}

func main() {
	workload := flag.String("workload", "", "workload to run: gateway-aic, gateway-lowsnr or server-stream")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "softlorabench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceFlag)
		flag.Usage()
		os.Exit(2)
	}
	r := newRun(*workload, *seed)
	r.seconds = time.Duration(*seconds * float64(time.Second))
	r.trace = *traceFlag == 1
	os.Exit(r.execute(w.run, w.gateway))
}

// newRun returns a run whose scratch directory lies under .bench_build in
// the working directory, the root of the checkout.
func newRun(workload string, seed int64) *run {
	return &run{
		workload: workload,
		seed:     seed,
		dir:      filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
		failures: map[string]int64{},
		metrics:  map[string]metric{},
	}
}

// execute runs the workload, prints the report and the result line, and
// returns the exit code.
func (r *run) execute(body func(*run) error, gateway bool) (code int) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "softlorabench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "invalid run: panic:", p)
			code = 1
		}
	}()
	mode := "end-to-end"
	if r.trace {
		mode = "traced"
	}
	fmt.Printf("softlorabench %s seed %d, %s run of %s\n", r.workload, r.seed, mode, r.seconds)
	if err := body(r); err != nil {
		fmt.Fprintln(os.Stderr, "softlorabench:", err)
		return 1
	}
	r.set("setup_s", median(r.setupTimes), "s")
	r.report("setup_s", median(r.setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(r.setupTimes)))
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.report("peak_rss_mb", r.metrics["peak_rss_mb"].Value, "MB", "")
	failedShare := float64(r.failed) / float64(max(r.attempted, 1))
	r.set("correct_share", 1-failedShare, "share")
	r.report("failed_share", failedShare, "share", fmt.Sprintf("%d of %d operations %s", r.failed, r.attempted, failureText(r.failures)))
	if r.digest != "" {
		fmt.Printf("  output digest %s\n", r.digest)
	}

	defs := endToEnd
	if r.trace {
		defs = perLayer
		r.set("ops.failed_share", failedShare, "share")
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if r.tracer != nil {
			if err := r.tracer.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "softlorabench:", err)
				return 1
			}
			fmt.Printf("  %d spans written to %s\n", len(r.tracer.spans), path)
		}
	}
	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case ok:
		case (d.server && gateway) || (d.gateway && !gateway):
			m = metric{Value: 0, Unit: d.unit}
		default:
			r.invalidate("metrics", fmt.Errorf("%s was not measured", d.name))
			continue
		}
		if m.Unit != d.unit {
			r.invalidate("metrics", fmt.Errorf("%s measured in %s, declared in %s", d.name, m.Unit, d.unit))
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.invalidate("metrics", fmt.Errorf("%s is %v", d.name, m.Value))
			m.Value = 0 // JSON has no NaN; the run is invalid anyway
		}
		out.Metrics[d.name] = m
	}
	env, err := json.Marshal(newEnvRecord(r.steal, r.dir))
	if err != nil {
		fmt.Fprintln(os.Stderr, "softlorabench:", err)
		return 1
	}
	fmt.Printf("  env %s\n", env)
	out.Correct = len(r.invalid) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softlorabench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "invalid run:", strings.Join(r.invalid, "; "))
		return 1
	}
	return 0
}

// failureText lists failed checks by name with their counts.
func failureText(f map[string]int64) string {
	if len(f) == 0 {
		return ""
	}
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	s := "("
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d", n, f[n])
	}
	return s + ")"
}
