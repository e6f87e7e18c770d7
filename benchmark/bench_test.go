package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/live"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 99, got: 99},  // exactly ten samples beyond p99
		{n: 999, want: 99, got: 95},   // nine beyond p99: fall back
		{n: 100, want: 99, got: 90},   // five beyond p95, ten beyond p90
		{n: 20000, want: 99, got: 99}, // p99.9 would qualify, but only p99 was asked
		{n: 12, want: 99, got: 50},    // nothing qualifies: the median stands in
	}
	for _, c := range cases {
		if p := reportablePct(c.n, c.want); p != c.got {
			t.Errorf("reportablePct(%d, %g) = %g, want %g", c.n, c.want, p, c.got)
		}
		if p := reportablePct(c.n, c.want); p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // unsorted on purpose
	}
	d := summarize(v)
	if d.N != 1000 || d.P50 != 500 || d.Tail != 990 || d.TailPct != 99 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", d)
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Fatal("ratio: empty base must read zero, others divide")
	}
	if perK(3, 1500) != 2 {
		t.Fatalf("perK(3, 1500) = %v, want 2 per thousand", perK(3, 1500))
	}
	// Reader ratios: per read, and k chunks per read for the cache share.
	tr := &live.ReadTrace{Spans: []live.Span{
		{Name: "hint"}, {Name: "cache-mget", Bytes: 300}, {Name: "store-mget:dublin", Bytes: 100},
		{Name: "degraded-get:tokyo", StartMS: 5, DurMS: 1, Bytes: 50}, {Name: "decode", Bytes: 9999},
	}}
	reads := []*opRec{
		{CacheChunks: 9, StaleDrops: 1, Trace: tr},
		{CacheChunks: 0, Trace: &live.ReadTrace{}},
		{CacheChunks: 9}, // untraced: outside every base
	}
	rt := totalReads(reads)
	if rt.reads != 2 || rt.cacheChunkRatio() != 0.5 {
		t.Errorf("cache chunk ratio = %v over %v reads, want 9/(9*2) = 0.5 over 2", rt.cacheChunkRatio(), rt.reads)
	}
	if rt.bytes != 450 || perK(rt.staleDrops, rt.reads) != 500 || perK(rt.waves, rt.reads) != 500 {
		t.Errorf("reader totals = %+v, want 450 fetched bytes (decode excluded), 1 stale drop and 1 wave over 2 reads", rt)
	}
	// Cache ratios: hits over the cache's own lookups, events per thousand ops.
	c0 := cache.Stats{Gets: 100, Hits: 50, Evictions: 1}
	c1 := cache.Stats{Gets: 300, Hits: 200, Evictions: 5, AdmissionRejects: 2, FullRejects: 1}
	cr := cacheDelta(c0, c1, 2000)
	want := cacheRatios{hitRatio: 0.75, evictionsPerKop: 2, admissionRejectsPerKop: 1, fullRejectsPerKop: 0.5}
	if cr != want {
		t.Errorf("cacheDelta = %+v, want %+v", cr, want)
	}
}

func TestJudge(t *testing.T) {
	const size = 4096
	j := newJudge(2, size)
	key := objectName(0)
	v0 := makePayload(key, 0, size)
	if _, err := j.checkRead(0, key, v0, j.floor(0)); err != nil {
		t.Fatalf("intact loaded object rejected: %v", err)
	}

	seq := j.beginWrite(0)
	v1 := makePayload(key, seq, size)
	// While the write is in flight both generations are acceptable.
	for _, v := range [][]byte{v0, v1} {
		if _, err := j.checkRead(0, key, v, j.floor(0)); err != nil {
			t.Errorf("read during an in-flight write rejected: %v", err)
		}
	}
	j.endWrite(0, seq, true)

	// Stale: a read starting after the acknowledged write returns v0.
	if _, err := j.checkRead(0, key, v0, j.floor(0)); !errors.Is(err, errStale) {
		t.Errorf("stale read: err = %v, want errStale", err)
	}
	// Torn: the first half of one write decoded with the second of another.
	torn := append(append([]byte(nil), v1[:size/2]...), v0[size/2:]...)
	if _, err := j.checkRead(0, key, torn, 0); !errors.Is(err, errTorn) {
		t.Errorf("torn read: err = %v, want errTorn", err)
	}
	// A single flipped bit and a short read are torn too.
	flipped := append([]byte(nil), v1...)
	flipped[size-1] ^= 1
	for _, bad := range [][]byte{flipped, v1[:size-1]} {
		if _, err := j.checkRead(0, key, bad, 0); !errors.Is(err, errTorn) {
			t.Errorf("corrupt read: err = %v, want errTorn", err)
		}
	}
	// Wrong key: another object's intact bytes.
	other := makePayload(objectName(1), 0, size)
	if _, err := j.checkRead(0, key, other, 0); !errors.Is(err, errWrongKey) {
		t.Errorf("wrong-key read: err = %v, want errWrongKey", err)
	}
	// Phantom: a version no writer started.
	if _, err := j.checkRead(0, key, makePayload(key, 7, size), 0); !errors.Is(err, errPhantom) {
		t.Errorf("phantom read: err = %v, want errPhantom", err)
	}
	// A failed write is not acknowledged.
	seq = j.beginWrite(0)
	j.endWrite(0, seq, false)
	if j.floor(0) != 1 {
		t.Errorf("floor after a failed write = %d, want 1", j.floor(0))
	}
}

// tracedRead builds a read whose spans follow the live reader's shape.
func tracedRead(schedMS, callMS, retMS, doneMS float64, spans ...live.Span) *opRec {
	d := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return &opRec{Sched: d(schedMS), Call: d(callMS), Ret: d(retMS), Done: d(doneMS), Trace: &live.ReadTrace{Spans: spans}}
}

func TestBudgetAdditivity(t *testing.T) {
	wan := map[string]float64{"tokyo": 9.8, "dublin": 1.2}
	r := tracedRead(0, 0.5, 12.5, 12.6,
		live.Span{Name: "hint", StartMS: 0.01, DurMS: 0.2},
		live.Span{Name: "cache-mget", StartMS: 0.3, DurMS: 0.4},
		live.Span{Name: "store-mget:dublin", StartMS: 0.3, DurMS: 1.6},
		live.Span{Name: "store-mget:tokyo", StartMS: 0.3, DurMS: 10.2},
		live.Span{Name: "degraded-get:tokyo", StartMS: 10.6, DurMS: 1.0},
		live.Span{Name: "decode", StartMS: 11.65, DurMS: 0.3},
	)
	b := opBudget(r, wan)
	if math.Abs(b.sum()-r.latMS()) > 1e-9 {
		t.Fatalf("one op's columns sum to %v, latency %v: %+v", b.sum(), r.latMS(), b)
	}
	if b.FetchWAN != 9.8 || math.Abs(b.FetchRest-(10.5-0.21-9.8)) > 1e-9 || math.Abs(b.Degraded-1.1) > 1e-9 {
		t.Errorf("critical fetch split wrong: %+v", b)
	}

	// Averaged around a percentile, the columns stay within tolerance.
	var reads []*opRec
	for i := 0; i < 200; i++ {
		lat := 2 + float64(i)*0.01
		reads = append(reads, tracedRead(0, 0.1, lat-0.05, lat,
			live.Span{Name: "hint", DurMS: 0.2},
			live.Span{Name: "cache-mget", StartMS: 0.2, DurMS: lat - 0.8},
			live.Span{Name: "decode", StartMS: lat - 0.5, DurMS: 0.3}))
	}
	lat := make([]float64, len(reads))
	for i, r := range reads {
		lat[i] = r.latMS()
	}
	d := summarize(lat)
	for _, c := range []struct{ pct, target float64 }{{50, d.P50}, {d.TailPct, d.Tail}} {
		bp := budgetAt(reads, c.pct, c.target, wan)
		if bp.gap() > budgetTolerance {
			t.Errorf("p%g budget sums to %v against %v (gap %.3f)", c.pct, bp.sum(), bp.TargetMS, bp.gap())
		}
		if bp.TargetMS != c.target {
			t.Errorf("p%g budget explains %v, want the reported %v", c.pct, bp.TargetMS, c.target)
		}
	}
	if bp := budgetAt(reads, 50, d.P50, wan); bp.Ops != 2*budgetHalfWidth+1 {
		t.Errorf("p50 budget averaged %d ops, want %d", bp.Ops, 2*budgetHalfWidth+1)
	}
}

func TestDegradedWaves(t *testing.T) {
	tr := &live.ReadTrace{Spans: []live.Span{
		{Name: "store-mget:tokyo", StartMS: 0, DurMS: 10},
		{Name: "degraded-get:sydney", StartMS: 10, DurMS: 11},
		{Name: "degraded-get:tokyo", StartMS: 10.01, DurMS: 9},
		{Name: "degraded-get:saopaulo", StartMS: 21.5, DurMS: 9},
	}}
	if got := degradedWaves(tr); got != 2 {
		t.Errorf("degradedWaves = %d, want 2", got)
	}
}

func TestMaxPassingRung(t *testing.T) {
	ok := func(rate float64) rung { return rung{Offered: rate, Achieved: rate, P99MS: 3} }
	cases := []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(1000), ok(2000)}, 2000},
		{"slow p99 stops the climb", []rung{ok(1000), {Offered: 2000, Achieved: 2000, P99MS: 10}, ok(3000)}, 1000},
		{"falling behind stops it", []rung{ok(1000), {Offered: 2000, Achieved: 1899, P99MS: 3}}, 1000},
		{"95% of offered still passes", []rung{{Offered: 2000, Achieved: 1900, P99MS: 3}}, 2000},
		{"a failed op stops it", []rung{ok(1000), {Offered: 2000, Achieved: 2000, P99MS: 3, Failed: 1}}, 1000},
		{"first rung fails", []rung{{Offered: 1000, Achieved: 500, P99MS: 50}}, 0},
	}
	for _, c := range cases {
		if got := maxPassingRung(c.rungs, 10); got != c.want {
			t.Errorf("%s: maxPassingRung = %v, want %v", c.name, got, c.want)
		}
	}
}
