// Command benchmark is the repository's end-to-end benchmark. It boots a
// live Agar deployment in-process (six regions, RS(9,3), a client in the
// workload's region, in-memory blobs, shard dispatch), drives open-loop load through
// the public client API with internal/loadgen as the scheduler, verifies
// every read's bytes, and prints one JSON result line.
//
//	bash benchmark/run.sh --workload geo-read --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced from a fresh set-up with the same seed, and
// reports the per-layer metrics, the latency budget and the tracing
// overhead. README.md maps every metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/agardist/agar/internal/loadgen"
)

// workload is one fixed set of inputs; only the seed varies between runs.
type workload struct {
	Name string `json:"name"`
	// Client is the region the reader and writer run in.
	Client      string  `json:"client_region"`
	Objects     int     `json:"objects"`
	ObjectBytes int     `json:"object_bytes"`
	CacheSlots  int     `json:"cache_slots"`
	DelayScale  float64 `json:"delay_scale"`
	Rate        float64 `json:"rate_ops"`
	UpdateFrac  float64 `json:"update_frac"`
	Warm        float64 `json:"warm_s"`
	// Probe closes the window with a write probe (probeConfig), so write
	// latency is measured on read-only workloads without disturbing the
	// cache under test.
	Probe bool `json:"probe,omitempty"`
	// Ladder is the ascending rate ladder behind max_rate_ops (traced
	// runs only); a rung passes with read p99 under P99LimitMS.
	Ladder     []float64 `json:"ladder_ops,omitempty"`
	P99LimitMS float64   `json:"p99_limit_ms,omitempty"`
}

const (
	objectBytes = 128 << 10
	geoObjects  = 300
	// setupRepeats is how many times a --trace 0 run sets up; setup_s is
	// the median.
	setupRepeats = 3
	// rungSeconds holds over 1000 reads at the lowest rung, enough for
	// a true p99.
	rungSeconds = 2.5
	rungWarm    = 250 * time.Millisecond
	// drainTimeout bounds the wait for stragglers after a window's last op.
	drainTimeout = 60 * time.Second
)

var geoUpdate = workload{Name: "geo-update", Client: "frankfurt", Objects: geoObjects, ObjectBytes: objectBytes, CacheSlots: 180,
	DelayScale: 0.01, Rate: 150, UpdateFrac: 0.5, Warm: 3}

var workloads = []workload{
	{Name: "geo-read", Client: "frankfurt", Objects: geoObjects, ObjectBytes: objectBytes, CacheSlots: 180,
		DelayScale: 0.01, Rate: 350, Warm: 3, Probe: true},
	{Name: "geo-read-sydney", Client: "sydney", Objects: geoObjects, ObjectBytes: objectBytes, CacheSlots: 180,
		DelayScale: 0.01, Rate: 350, Warm: 3, Probe: true},
	{Name: "resident-read", Client: "frankfurt", Objects: 64, ObjectBytes: objectBytes, CacheSlots: 64 * codeK,
		Rate: 500, Warm: 2, Probe: true,
		Ladder: []float64{500, 1000, 1500, 2000, 2500}, P99LimitMS: 10},
	geoUpdate,
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix is the workload's loadgen op mix.
func (w workload) mix() []loadgen.OpWeight {
	if w.UpdateFrac == 0 {
		return []loadgen.OpWeight{{Kind: kindRead, Weight: 1}}
	}
	return []loadgen.OpWeight{{Kind: kindRead, Weight: 1 - w.UpdateFrac}, {Kind: kindUpdate, Weight: w.UpdateFrac}}
}

func (w workload) mainConfig(seed int64, seconds float64) loadgen.Config {
	return loadgen.Config{
		Rate: w.Rate, Duration: secs(seconds), Warmup: secs(w.Warm), Seed: seed,
		Mix: w.mix(), Keys: w.Objects, Skew: skew, WaitTimeout: drainTimeout,
	}
}

// probeConfig is geo-update's write stream — its update rate, warm-up,
// key count and skew — for as long as the window, aimed at probeKeys
// keys that no read touches.
func probeConfig(seed int64, seconds float64) loadgen.Config {
	return loadgen.Config{
		Rate: geoUpdate.Rate * geoUpdate.UpdateFrac, Duration: secs(seconds), Warmup: secs(geoUpdate.Warm),
		Seed: seed, Mix: []loadgen.OpWeight{{Kind: kindUpdate, Weight: 1}},
		Keys: probeKeys, Skew: skew, WaitTimeout: drainTimeout,
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir holds the report and span dump of each run, inside the checkout.
const outDir = ".bench_out"

func main() {
	name := flag.String("workload", "", "workload: geo-read, geo-read-sydney, resident-read or geo-update")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 25, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload geo-read|geo-read-sydney|resident-read|geo-update --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := &report{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *traced, Provenance: provenance()}
	var err error
	if *traced == 0 {
		err = runEndToEnd(rep, w, *seed, *seconds)
	} else {
		err = runTraced(rep, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	rep.printSummary()
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: verification failed: %s\n", rep.FirstError)
	}
}

// report is everything one run found; it is written to outDir and its
// Result is printed last.
type report struct {
	Workload   workload          `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Provenance map[string]any    `json:"provenance"`
	Setups     [][]step          `json:"setups"`
	Samples    map[string]dist   `json:"samples"`
	Budgets    []budget          `json:"budgets,omitempty"`
	Rungs      []rung            `json:"rungs,omitempty"`
	Peaks      map[string]peaks  `json:"peaks,omitempty"`
	FirstError string            `json:"first_error,omitempty"`
	Failures   map[string]int    `json:"failures,omitempty"`
	Result     result            `json:"result"`
	Windows    map[string]winSum `json:"windows"`
}

// winSum is a window's headline in the report.
type winSum struct {
	Offered    float64 `json:"offered_ops"`
	Achieved   float64 `json:"achieved_ops"`
	SendLagMS  float64 `json:"send_lag_max_ms"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	WarmFailed int     `json:"warm_failed"`
	StealPct   float64 `json:"host_steal_pct"`
}

// tally adds a window's ops to the run's attempted/failed counts and
// remembers its first error.
func (rep *report) tally(label string, win *window) {
	if rep.Windows == nil {
		rep.Windows = map[string]winSum{}
		rep.Peaks = map[string]peaks{}
	}
	rep.Windows[label] = winSum{
		Offered: win.Point.OfferedOps, Achieved: win.Point.AchievedOps,
		SendLagMS: win.Point.SendLagMaxUs / 1000, Attempted: win.Issued,
		Failed: win.failed(), WarmFailed: win.WarmFailed, StealPct: win.stealPct(),
	}
	rep.Peaks[label] = win.Peaks
	rep.Result.Attempted += win.Issued
	rep.Result.Failed += win.failed() + win.WarmFailed
	for class, n := range win.failureClasses() {
		if rep.Failures == nil {
			rep.Failures = map[string]int{}
		}
		rep.Failures[class] += n
	}
	if win.FirstErr != nil && rep.FirstError == "" {
		rep.FirstError = win.FirstErr.Error()
	}
}

func (rep *report) finish() {
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
}

func (rep *report) set(name string, value float64, unit string) {
	if rep.Result.Metrics == nil {
		rep.Result.Metrics = map[string]metric{}
	}
	rep.Result.Metrics[name] = metric{Value: value, Unit: unit}
}

func (rep *report) sample(name string, d dist) {
	if rep.Samples == nil {
		rep.Samples = map[string]dist{}
	}
	rep.Samples[name] = d
}

// runEndToEnd sets up setupRepeats times, measures the last deployment
// untraced, and reports the end-to-end metrics. The unused deployments'
// memory is returned to the OS and the peak-RSS mark reset before the
// last set-up, so rss_peak_mb covers only the measured deployment.
func runEndToEnd(rep *report, w workload, seed int64, seconds float64) error {
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			d.close()
			debug.FreeOSMemory()
			if err := resetRSSPeak(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: warning: peak RSS not reset, so rss_peak_mb covers every set-up: %v\n", err)
			}
		}
		var err error
		if d, err = setUp(w, seed); err != nil {
			return err
		}
		setups = append(setups, d.total.Seconds())
		rep.Setups = append(rep.Setups, d.steps)
	}
	defer d.close()
	win, probe, err := measure(rep, d, w, seed, seconds, false)
	if err != nil {
		return err
	}
	reads := latencies(win.reads())
	writeRecs := win.writes()
	if probe != nil {
		writeRecs = probe.writes()
	}
	writes := latencies(writeRecs)
	rep.sample("read", reads)
	rep.sample("write", writes)
	rep.set("read_p50_ms", reads.P50, "ms")
	rep.set("read_p99_ms", reads.Tail, "ms")
	rep.set("write_p50_ms", writes.P50, "ms")
	rep.set("write_p99_ms", writes.Tail, "ms")
	rep.set("achieved_ops", win.achieved(secs(w.Warm)), "ops/s")
	rep.set("setup_s", median(setups), "s")
	rep.set("rss_peak_mb", rssPeakMB(), "MB")
	rep.finish()
	return nil
}

// measure runs the workload's window over d and, for read-only
// workloads, the write probe after it.
func measure(rep *report, d *deployment, w workload, seed int64, seconds float64, keep bool) (win, probe *window, err error) {
	if win, err = runWindow(d, w.mainConfig(seed, seconds), false, keep); err != nil {
		return nil, nil, err
	}
	label := "main"
	if keep {
		label = "main-traced"
	}
	rep.tally(label, win)
	if w.Probe {
		if probe, err = runWindow(d, probeConfig(seed, seconds), true, keep); err != nil {
			return nil, nil, err
		}
		rep.tally(label+"-probe", probe)
	}
	return win, probe, nil
}

// runTraced measures the workload untraced (plus the rate ladder, where it
// has one), then again from a fresh set-up with the same seed keeping
// every span, and reports the per-layer metrics.
func runTraced(rep *report, w workload, seed int64, seconds float64) error {
	d, err := setUp(w, seed)
	if err != nil {
		return err
	}
	rep.Setups = append(rep.Setups, d.steps)
	base, err := runWindow(d, w.mainConfig(seed, seconds), false, false)
	if err != nil {
		d.close()
		return err
	}
	rep.tally("main", base)
	if len(w.Ladder) > 0 {
		if err := runLadder(rep, d, w, seed); err != nil {
			d.close()
			return err
		}
	}
	d.close()

	if d, err = setUp(w, seed); err != nil {
		return err
	}
	defer d.close()
	rep.Setups = append(rep.Setups, d.steps)
	win, probe, err := measure(rep, d, w, seed, seconds, true)
	if err != nil {
		return err
	}
	layerMetrics(rep, d, base, win, probe)
	rep.finish()
	return writeSpans(rep, d, win, probe)
}

// runLadder climbs the workload's rate ladder until a rung falls short and
// reports the highest rung below it as max_rate_ops.
func runLadder(rep *report, d *deployment, w workload, seed int64) error {
	for _, rate := range w.Ladder {
		cfg := w.mainConfig(seed, rungSeconds)
		cfg.Rate, cfg.Warmup = rate, rungWarm
		win, err := runWindow(d, cfg, false, false)
		if err != nil {
			return err
		}
		rep.tally(fmt.Sprintf("rung-%g", rate), win)
		r := rung{Offered: rate, Achieved: win.achieved(rungWarm), P99MS: latencies(win.reads()).Tail, Failed: win.failed()}
		rep.Rungs = append(rep.Rungs, r)
		if maxPassingRung([]rung{r}, w.P99LimitMS) == 0 {
			break
		}
	}
	rep.set("max_rate_ops", maxPassingRung(rep.Rungs, w.P99LimitMS), "ops/s")
	return nil
}

// write stores the report under outDir.
func (rep *report) write() error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", rep.Workload.Name, rep.Seed, rep.Trace))
	return os.WriteFile(path, data, 0o644)
}

// printSummary prints the human-readable lines that precede the result.
func (rep *report) printSummary() {
	fmt.Printf("workload %s seed %d trace %d: attempted %d failed %d\n",
		rep.Workload.Name, rep.Seed, rep.Trace, rep.Result.Attempted, rep.Result.Failed)
	prov, _ := json.Marshal(rep.Provenance)
	fmt.Printf("provenance %s\n", prov)
	labels := make([]string, 0, len(rep.Windows))
	for l := range rep.Windows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		ws := rep.Windows[l]
		fmt.Printf("window %-18s offered %7.1f achieved %7.1f ops/s, send lag max %.2f ms, host steal %.2f%%\n",
			l, ws.Offered, ws.Achieved, ws.SendLagMS, ws.StealPct)
	}
	names := make([]string, 0, len(rep.Samples))
	for n := range rep.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := rep.Samples[n]
		fmt.Printf("samples %-14s n=%d p50=%.3f p%g=%.3f\n", n, s.N, s.P50, s.TailPct, s.Tail)
	}
	if len(rep.Budgets) > 0 {
		fmt.Println(budgetTable(rep.Budgets))
	}
	for _, r := range rep.Rungs {
		fmt.Printf("rung %6.0f ops/s offered -> %7.1f achieved, read p99 %.2f ms, failed %d\n", r.Offered, r.Achieved, r.P99MS, r.Failed)
	}
}
