package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/loadgen"
	"github.com/agardist/agar/internal/metrics"
)

// window is one open-loop loadgen run through the issuer, with what the
// layers reported around it.
type window struct {
	Point      loadgen.Point
	Recs       []opRec
	All        int // ops issued, warm-up included
	Issued     int // measured ops issued
	WarmFailed int
	FirstErr   error
	Unresolved int
	Before     snap
	After      snap
	Peaks      peaks
}

// snap is one reading of the counters the layers keep.
type snap struct {
	Fams  []metrics.Family
	Cache cache.Stats
	Mem   runtime.MemStats
	// CPU is the host's aggregate CPU time in clock ticks, busy and idle,
	// and Steal the part of it the hypervisor gave to other guests.
	CPU, Steal uint64
}

func takeSnap(d *deployment) snap {
	s := snap{Fams: d.cl.Registry().Gather(), Cache: d.cl.Node().Cache().Stats()}
	runtime.ReadMemStats(&s.Mem)
	s.CPU, s.Steal = hostCPU()
	return s
}

// hostCPU reads the aggregate line of /proc/stat; zero where it is
// unavailable.
func hostCPU() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealPct is the share of the host's CPU time stolen by the hypervisor
// over the window: other guests' load, which the window's tails absorb.
func (w *window) stealPct() float64 {
	return 100 * ratio(float64(w.After.Steal-w.Before.Steal), float64(w.After.CPU-w.Before.CPU))
}

// peaks holds maxima sampled while a window runs.
type peaks struct {
	Goroutines int   `json:"goroutines"`
	QueueDepth int64 `json:"queue_depth"`
	PopDepth   int   `json:"populate_depth"`
}

// peakEvery is how often the peak sampler polls.
const peakEvery = 5 * time.Millisecond

// samplePeaks polls until stop closes, then sends its maxima on out.
func samplePeaks(d *deployment, stop <-chan struct{}, out chan<- peaks) {
	var p peaks
	t := time.NewTicker(peakEvery)
	defer t.Stop()
	for {
		p.Goroutines = max(p.Goroutines, runtime.NumGoroutine())
		p.QueueDepth = max(p.QueueDepth, d.cl.CacheQueueDepth())
		depth, _ := d.reader.PopulationBackPressure()
		p.PopDepth = max(p.PopDepth, depth)
		select {
		case <-stop:
			out <- p
			return
		case <-t.C:
		}
	}
}

// runWindow drives cfg through a fresh issuer over d; probe aims it at the
// write-probe keys, keep retains each read's trace.
func runWindow(d *deployment, cfg loadgen.Config, probe, keep bool) (*window, error) {
	w := &window{Before: takeSnap(d)}
	stop, out := make(chan struct{}), make(chan peaks, 1)
	go samplePeaks(d, stop, out)
	is := newIssuer(d, cfg.Rate, cfg.Warmup, probe, keep)
	pt, runErr := loadgen.Run(cfg, is)
	close(stop)
	w.Peaks = <-out
	w.After = takeSnap(d)
	w.Point = pt
	w.Recs, w.All, w.Issued, w.WarmFailed, w.FirstErr = is.results()
	if runErr != nil {
		if w.Issued == 0 {
			return nil, fmt.Errorf("load run: %w", runErr)
		}
		// Ops still unresolved when loadgen stopped waiting count as failed.
		w.Unresolved = w.Issued - len(w.Recs)
		if w.FirstErr == nil {
			w.FirstErr = runErr
		}
	}
	return w, nil
}

// reads and writes split the window's records by kind.
func (w *window) reads() []*opRec  { return w.filter(false) }
func (w *window) writes() []*opRec { return w.filter(true) }

func (w *window) filter(write bool) []*opRec {
	var out []*opRec
	for i := range w.Recs {
		if w.Recs[i].Write == write {
			out = append(out, &w.Recs[i])
		}
	}
	return out
}

// achieved is the window's goodput: measured ops that succeeded, over the
// time from the window's first scheduled arrival to its last completion.
// Unlike loadgen's in-window count it is a measured rate even when every
// op completes on time, and a backlog drained after the window lowers it.
func (w *window) achieved(warm time.Duration) float64 {
	var ok int
	var last time.Duration
	for i := range w.Recs {
		if w.Recs[i].Err == nil {
			ok++
		}
		last = max(last, w.Recs[i].Done)
	}
	if last <= warm {
		return 0
	}
	return float64(ok) / (last - warm).Seconds()
}

// failed counts measured ops that errored, returned wrong, torn or stale
// bytes, or never resolved.
func (w *window) failed() int {
	n := w.Unresolved
	for i := range w.Recs {
		if w.Recs[i].Err != nil {
			n++
		}
	}
	return n
}

// failureClasses counts the window's failed measured ops by cause.
func (w *window) failureClasses() map[string]int {
	out := map[string]int{}
	if w.Unresolved > 0 {
		out["unresolved"] = w.Unresolved
	}
	if w.WarmFailed > 0 {
		out["warm-up"] = w.WarmFailed
	}
	for i := range w.Recs {
		if err := w.Recs[i].Err; err != nil {
			out[failureClass(err)]++
		}
	}
	return out
}

// failureClass names what a failed op got wrong.
func failureClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{{errTorn, "torn"}, {errWrongKey, "wrong-key"}, {errStale, "stale"}, {errPhantom, "phantom"}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "client-error"
}

// latencies summarizes the latency of recs in ms.
func latencies(recs []*opRec) dist {
	v := make([]float64, len(recs))
	for i, r := range recs {
		v[i] = r.latMS()
	}
	return summarize(v)
}

// sumFamily adds up every sample of the named family whose labels match
// want, returning the total and the family's bucket bounds.
func sumFamily(fams []metrics.Family, name string, want map[string]string) (metrics.Sample, []float64) {
	var total metrics.Sample
	for _, f := range fams {
		if f.Name != name {
			continue
		}
	next:
		for _, s := range f.Samples {
			for i, l := range f.Labels {
				if v, ok := want[l]; ok && s.LabelValues[i] != v {
					continue next
				}
			}
			total.Value += s.Value
			total.Sum += s.Sum
			total.Count += s.Count
			if total.BucketCounts == nil {
				total.BucketCounts = make([]uint64, len(s.BucketCounts))
			}
			for i, c := range s.BucketCounts {
				total.BucketCounts[i] += c
			}
		}
		return total, f.Buckets
	}
	return total, nil
}

// familyDelta is the window's change in the matching samples of a family.
func familyDelta(before, after snap, name string, want map[string]string) (metrics.Sample, []float64) {
	end, bounds := sumFamily(after.Fams, name, want)
	start, _ := sumFamily(before.Fams, name, want)
	return metrics.DeltaSample(end, start), bounds
}

// histQuantileMS reads quantile q of a seconds histogram's window delta,
// in ms; zero when the window observed nothing.
func histQuantileMS(before, after snap, name string, want map[string]string, q float64) float64 {
	d, bounds := familyDelta(before, after, name, want)
	return 1000 * metrics.Quantile(bounds, d, q)
}

// counterDelta is the window's increase of the matching counters.
func counterDelta(before, after snap, name string, want map[string]string) float64 {
	d, _ := familyDelta(before, after, name, want)
	return d.Value
}
