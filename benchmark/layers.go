package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/trace"
)

// layerMetrics reports the per-layer metrics: generator and runtime
// figures from the untraced window base, everything else from the traced
// window win (and the write probe after it, for the write side).
func layerMetrics(rep *report, d *deployment, base, win, probe *window) {
	// Generator and Go runtime, untraced.
	rep.set("gen.send_lag_max_ms", base.Point.SendLagMaxUs/1000, "ms")
	waits := make([]float64, 0, len(base.Recs))
	for i := range base.Recs {
		waits = append(waits, ms(base.Recs[i].Call-base.Recs[i].Sched))
	}
	rep.set("gen.issue_wait_p99_ms", summarize(waits).Tail, "ms")
	m0, m1, ops := base.Before.Mem, base.After.Mem, float64(base.All)
	rep.set("runtime.alloc_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B")
	rep.set("runtime.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), ops), "count")
	rep.set("runtime.gc_cycles_per_kop", perK(float64(m1.NumGC-m0.NumGC), ops), "1/kop")
	rep.set("runtime.gc_pause_ms_total", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	rep.set("runtime.goroutines_max", float64(base.Peaks.Goroutines), "count")

	// Reader spans, traced.
	reads := win.reads()
	var hint, mget, decode, self, store, wan, mgetQ, mgetX, hintX, storeQ, storeX []float64
	for _, r := range reads {
		if r.Trace == nil {
			continue
		}
		b := opBudget(r, d.wanMS)
		self = append(self, b.Self)
		wan = append(wan, b.FetchWAN)
		for _, s := range r.Trace.Spans {
			q, x, remote := remoteTimes(s.Remote)
			switch {
			case s.Name == "hint":
				hint = append(hint, s.DurMS)
				if remote {
					hintX = append(hintX, x)
				}
			case s.Name == "decode":
				decode = append(decode, s.DurMS)
			case s.Name == "cache-mget":
				mget = append(mget, s.DurMS)
				if remote {
					mgetQ, mgetX = append(mgetQ, q), append(mgetX, x)
				}
			case spanRegion(s.Name) != "":
				store = append(store, max(0, s.DurMS-d.wanMS[spanRegion(s.Name)]))
				if remote && strings.HasPrefix(s.Name, "store-mget:") {
					storeQ, storeX = append(storeQ, q), append(storeX, x)
				}
			}
		}
	}
	rt := totalReads(reads)
	pair := func(name string, v []float64) {
		s := summarize(v)
		rep.sample(name, s)
		rep.set(name+".p50", s.P50, "ms")
		rep.set(name+".p99", s.Tail, "ms")
	}
	pair("reader.hint_ms", hint)
	pair("reader.cache_mget_ms", mget)
	pair("reader.decode_ms", decode)
	pair("reader.self_ms", self)
	pair("reader.store_fetch_ms", store)
	rep.set("reader.wan_delay_ms.p50", summarize(wan).P50, "ms")
	rep.set("reader.degraded_waves_per_kread", perK(rt.waves, rt.reads), "1/kread")
	rep.set("reader.stale_drops_per_kread", perK(rt.staleDrops, rt.reads), "1/kread")
	rep.set("reader.cache_chunk_ratio", rt.cacheChunkRatio(), "ratio")
	rep.set("reader.bytes_per_read", ratio(rt.bytes, rt.reads), "B")
	rep.set("reader.populate_dropped", counterDelta(win.Before, win.After, metrics.NamePopulationDropped, nil), "count")
	rep.set("reader.populate_depth_max", float64(win.Peaks.PopDepth), "count")

	// Servers: read side from trace annotations, write side from the
	// registry's histograms over the window and the probe.
	rep.set("server.cache.mget.queue_ms.p99", summarize(mgetQ).Tail, "ms")
	rep.set("server.cache.mget.exec_ms.p50", summarize(mgetX).P50, "ms")
	rep.set("server.cache.mget.exec_ms.p99", summarize(mgetX).Tail, "ms")
	rep.set("server.hint.exec_ms.p50", summarize(hintX).P50, "ms")
	rep.set("server.store.mget.queue_ms.p99", summarize(storeQ).Tail, "ms")
	rep.set("server.store.mget.exec_ms.p50", summarize(storeX).P50, "ms")
	wEnd := win.After
	wOps := float64(len(win.Recs))
	if probe != nil {
		wEnd = probe.After
		wOps += float64(len(probe.Recs))
	}
	op := func(server, op string) map[string]string { return map[string]string{"server": server, "op": op} }
	rep.set("server.cache.mput.exec_ms.p50", histQuantileMS(win.Before, win.After, metrics.NameServerOpExecute, op("cache", "mput"), 0.5), "ms")
	rep.set("server.store.putver.queue_ms.p99", histQuantileMS(win.Before, wEnd, metrics.NameServerOpQueueWait, op("store", "put"), 0.99), "ms")
	rep.set("server.store.putver.exec_ms.p50", histQuantileMS(win.Before, wEnd, metrics.NameServerOpExecute, op("store", "put"), 0.5), "ms")
	rep.set("server.store.putver.exec_ms.p99", histQuantileMS(win.Before, wEnd, metrics.NameServerOpExecute, op("store", "put"), 0.99), "ms")
	rep.set("server.cache.delobj.exec_ms.p50", histQuantileMS(win.Before, wEnd, metrics.NameServerOpExecute, op("cache", "delobj"), 0.5), "ms")
	rep.set("server.queue_depth_max", float64(win.Peaks.QueueDepth), "count")

	// Cache, core, blob and coherence counters.
	cr := cacheDelta(win.Before.Cache, win.After.Cache, float64(len(win.Recs)))
	rep.set("cache.hit_ratio", cr.hitRatio, "ratio")
	rep.set("cache.evictions_per_kop", cr.evictionsPerKop, "1/kop")
	rep.set("cache.admission_rejects_per_kop", cr.admissionRejectsPerKop, "1/kop")
	rep.set("cache.full_rejects_per_kop", cr.fullRejectsPerKop, "1/kop")
	rep.set("core.reconfigure_s", d.stepDur("reconfigure").Seconds(), "s")
	rep.set("core.configured_keys", float64(len(d.config.Options)), "count")
	rep.set("core.configured_slots", float64(d.config.Weight), "count")
	rep.set("core.config_value", d.config.Value, "ms")
	rep.set("blob.get_ms.p50", histQuantileMS(win.Before, win.After, metrics.NameBlobOpSeconds, map[string]string{"op": "get"}, 0.5), "ms")
	rep.set("blob.put_ms.p50", histQuantileMS(win.Before, wEnd, metrics.NameBlobOpSeconds, map[string]string{"op": "put"}, 0.5), "ms")
	rep.set("coherence.invalidations_per_kop", perK(counterDelta(win.Before, wEnd, metrics.NameCoherenceInvalidations, nil), wOps), "1/kop")
	rep.set("coherence.stale_rejects_per_kop", perK(counterDelta(win.Before, wEnd, metrics.NameCoherenceStaleRejects, nil), wOps), "1/kop")

	// Budget at the reported percentiles, tracing overhead.
	traced, untraced := latencies(reads), latencies(base.reads())
	for _, b := range []budget{
		budgetAt(reads, 50, traced.P50, d.wanMS),
		budgetAt(reads, traced.TailPct, traced.Tail, d.wanMS),
	} {
		rep.Budgets = append(rep.Budgets, b)
		tag := "budget.p50."
		if b.Pct != 50 {
			tag = "budget.p99."
		}
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"issue_wait_ms", b.IssueWait}, {"hint_ms", b.Hint}, {"fetch_wan_ms", b.FetchWAN},
			{"fetch_rest_ms", b.FetchRest}, {"degraded_ms", b.Degraded}, {"decode_ms", b.Decode},
			{"self_ms", b.Self}, {"verify_ms", b.Verify},
		} {
			rep.set(tag+c.name, c.v, "ms")
			if c.v < 0 {
				fmt.Fprintf(os.Stderr, "benchmark: warning: %s%s is %.3f ms: spans overlap\n", tag, c.name, c.v)
			}
		}
		rep.set(tag+"gap_pct", 100*b.gap(), "%")
		if b.gap() > budgetTolerance {
			fmt.Fprintf(os.Stderr, "benchmark: warning: p%g budget sums to %.3f ms against %.3f ms, %.1f%% off (tolerance %g%%)\n",
				b.Pct, b.sum(), b.TargetMS, 100*b.gap(), 100*budgetTolerance)
		}
	}
	rep.sample("read", untraced)
	rep.sample("read_traced", traced)
	rep.set("trace.read_p50_ms", traced.P50, "ms")
	rep.set("trace.read_p99_ms", traced.Tail, "ms")
	rep.set("trace.overhead_p50_ms", traced.P50-untraced.P50, "ms")
	rep.set("trace.overhead_p99_ms", traced.Tail-untraced.Tail, "ms")
	writes := win.writes()
	if probe != nil {
		writes = probe.writes()
	}
	rep.sample("write_traced", latencies(writes))
	rep.set("samples.read", float64(len(reads)), "count")
	rep.set("samples.write", float64(len(writes)), "count")
	if _, ok := rep.Result.Metrics["max_rate_ops"]; !ok {
		rep.set("max_rate_ops", 0, "ops/s")
	}
	rep.set("error_ratio", ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted)), "ratio")
}

// readTotals are the counts behind the reader's ratios, over the traced
// reads of a window. Every per-read ratio has the read count as its base;
// the cache-chunk ratio has k chunks per read.
type readTotals struct {
	reads, cacheChunks, staleDrops, waves, bytes float64
}

func totalReads(reads []*opRec) readTotals {
	var t readTotals
	for _, r := range reads {
		if r.Trace == nil {
			continue
		}
		t.reads++
		t.cacheChunks += float64(r.CacheChunks)
		t.staleDrops += float64(r.StaleDrops)
		t.waves += float64(degradedWaves(r.Trace))
		for _, s := range r.Trace.Spans {
			if s.Name != "decode" {
				t.bytes += float64(s.Bytes)
			}
		}
	}
	return t
}

// cacheChunkRatio is cache-served chunks over the k chunks each read
// decodes from.
func (t readTotals) cacheChunkRatio() float64 { return ratio(t.cacheChunks, codeK*t.reads) }

// cacheRatios are the cache's counters over a window. The hit ratio's base
// is the cache's own chunk lookups; the per-kop rates' base is the
// window's measured ops.
type cacheRatios struct {
	hitRatio, evictionsPerKop, admissionRejectsPerKop, fullRejectsPerKop float64
}

func cacheDelta(c0, c1 cache.Stats, ops float64) cacheRatios {
	return cacheRatios{
		hitRatio:               ratio(float64(c1.Hits-c0.Hits), float64(c1.Gets-c0.Gets)),
		evictionsPerKop:        perK(float64(c1.Evictions-c0.Evictions), ops),
		admissionRejectsPerKop: perK(float64(c1.AdmissionRejects-c0.AdmissionRejects), ops),
		fullRejectsPerKop:      perK(float64(c1.FullRejects-c0.FullRejects), ops),
	}
}

// remoteTimes reads a client span's server annotations: the longest queue
// wait and the longest execute (split batches run their parts in
// parallel, so the longest part bounds the exchange).
func remoteTimes(anns []trace.Annotation) (queueMS, execMS float64, ok bool) {
	for _, a := range anns {
		d := float64(a.DurUS) / 1000
		switch {
		case a.Name == "queue" || strings.HasSuffix(a.Name, "/queue"):
			queueMS, ok = max(queueMS, d), true
		case a.Name == "exec" || strings.HasSuffix(a.Name, "/exec"):
			execMS, ok = max(execMS, d), true
		}
	}
	return queueMS, execMS, ok
}

// budgetTable renders budgets as a text table.
func budgetTable(bs []budget) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %9s %9s %7s %9s %9s %9s %9s %8s %8s %8s %9s %6s\n",
		"budget", "target", "sum", "gap%", "issue", "hint", "fetchWAN", "fetch", "degr", "decode", "self", "verify", "ops")
	for _, b := range bs {
		fmt.Fprintf(&sb, "p%-5g %9.3f %9.3f %7.2f %9.3f %9.3f %9.3f %9.3f %8.3f %8.3f %8.3f %9.3f %6d\n",
			b.Pct, b.TargetMS, b.sum(), 100*b.gap(), b.IssueWait, b.Hint, b.FetchWAN, b.FetchRest,
			b.Degraded, b.Decode, b.Self, b.Verify, b.Ops)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// spanLine is one line of the span dump. An op is the root span (Sched to
// Done); its children are the issue wait (Sched to Call), the client call
// (Call to Ret, with the reader's own spans and their server annotations
// under Trace) and the verification (Ret to Done).
type spanLine struct {
	Span    string          `json:"span"`
	Window  string          `json:"window,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Key     int             `json:"key,omitempty"`
	StartMS float64         `json:"start_ms"`
	DurMS   float64         `json:"dur_ms"`
	CallMS  float64         `json:"call_ms,omitempty"`
	RetMS   float64         `json:"ret_ms,omitempty"`
	Err     string          `json:"err,omitempty"`
	Trace   *live.ReadTrace `json:"trace,omitempty"`
}

// writeSpans dumps the traced run's spans under outDir as JSON lines.
func writeSpans(rep *report, d *deployment, wins ...*window) error {
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", rep.Workload.Name, rep.Seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range d.steps {
		if err := enc.Encode(spanLine{Span: "setup/" + s.Name, StartMS: ms(s.Start), DurMS: ms(s.Dur)}); err != nil {
			f.Close()
			return err
		}
	}
	for wi, win := range wins {
		if win == nil {
			continue
		}
		label := []string{"main", "probe"}[wi]
		for i := range win.Recs {
			r := &win.Recs[i]
			l := spanLine{Span: "op", Window: label, Kind: kindRead, Key: r.Key,
				StartMS: ms(r.Sched), DurMS: r.latMS(), CallMS: ms(r.Call), RetMS: ms(r.Ret), Trace: r.Trace}
			if r.Write {
				l.Kind = kindUpdate
			}
			if r.Err != nil {
				l.Err = r.Err.Error()
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance records what the numbers were measured on.
func provenance() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unavailable (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gogc,
		"go_version": runtime.Version(), "cpu_model": cpuModel(), "git_commit": commit,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetRSSPeak sets the peak resident set (VmHWM) back to the current
// resident set. Where /proc is missing, rssPeakMB reads the runtime
// instead and there is nothing to reset.
func resetRSSPeak() error {
	err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// rssPeakMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's reserved memory where /proc is unavailable.
func rssPeakMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
