package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/loadgen"
)

// Op kinds in the loadgen mix.
const (
	kindRead   = "read"
	kindUpdate = "update"
)

// maxInFlight bounds the ops the issuer has outstanding. Issue blocks at
// the bound, which loadgen charges to the op (its clock started at the
// scheduled arrival) and reports as send lag.
const maxInFlight = 512

// opRec is one measured op. Times are offsets from the run's first
// scheduled arrival: Sched is when the op was due, Call when the issuer
// entered the public client call, Ret when the call returned, and Done
// when its bytes had been verified.
type opRec struct {
	Write       bool
	Key         int
	Sched       time.Duration
	Call        time.Duration
	Ret         time.Duration
	Done        time.Duration
	Err         error
	CacheChunks int
	StaleDrops  int
	Trace       *live.ReadTrace // kept only by a traced run
}

// latMS is the op's latency: scheduled arrival to verified bytes.
func (r *opRec) latMS() float64 { return ms(r.Done - r.Sched) }

// issuer is the loadgen.Issuer that drives ops through the public client
// API: one NetworkReader and one NetworkWriter serve every op. It keeps
// its own record of each op so latencies can be split into a budget.
type issuer struct {
	reader   *live.NetworkReader
	writer   *live.NetworkWriter
	judge    *judge
	interval time.Duration
	warm     time.Duration
	// probe aims ops at the write-probe keys: key obj-N becomes probe-N.
	probe bool
	keep  bool
	sem   chan struct{}

	// Scheduler-goroutine state: ops issued, measured ops issued, and the
	// first op's issue time.
	n, issued int
	t0        time.Time

	mu         sync.Mutex
	recs       []opRec
	warmFailed int
	firstErr   error
}

func newIssuer(d *deployment, rate float64, warm time.Duration, probe, keep bool) *issuer {
	return &issuer{
		reader: d.reader, writer: d.writer, judge: d.judge,
		interval: time.Duration(float64(time.Second) / rate),
		warm:     warm, probe: probe, keep: keep,
		sem: make(chan struct{}, maxInFlight),
	}
}

// Issue runs on loadgen's scheduler goroutine. Op i is due at the first
// op's issue time plus i intervals, the schedule loadgen itself keeps.
func (is *issuer) Issue(op loadgen.Op, done func(error)) {
	if is.n == 0 {
		is.t0 = time.Now()
	}
	sched := time.Duration(is.n) * is.interval
	is.n++
	if sched >= is.warm {
		is.issued++
	}
	is.sem <- struct{}{}
	go func() {
		rec := is.do(op, sched)
		<-is.sem
		done(rec.Err)
	}()
}

func (is *issuer) do(op loadgen.Op, sched time.Duration) opRec {
	n, err := strconv.Atoi(strings.TrimPrefix(op.Key, "obj-"))
	if err != nil {
		panic(fmt.Sprintf("loadgen key %q", op.Key)) // loadgen only makes obj-N keys
	}
	k, name := n, op.Key
	if is.probe {
		k, name = len(is.judge.acked)-probeKeys+n, "probe-"+strconv.Itoa(n)
	}
	rec := opRec{Key: k, Sched: sched, Call: time.Since(is.t0)}
	switch op.Kind {
	case kindRead:
		floor := is.judge.floor(k)
		data, info, err := is.reader.ReadDetailed(name)
		rec.Ret = time.Since(is.t0)
		if err == nil {
			_, err = is.judge.checkRead(k, name, data, floor)
		}
		rec.Err = err
		rec.CacheChunks, rec.StaleDrops = info.CacheChunks, info.StaleDrops
		if is.keep {
			rec.Trace = info.Trace
		}
	case kindUpdate:
		rec.Write = true
		seq := is.judge.beginWrite(k)
		_, err := is.writer.Write(name, makePayload(name, seq, is.judge.size))
		is.judge.endWrite(k, seq, err == nil)
		rec.Ret = time.Since(is.t0)
		rec.Err = err
	default:
		rec.Err = fmt.Errorf("unknown op kind %q", op.Kind)
	}
	rec.Done = time.Since(is.t0)
	if rec.Err != nil {
		rec.Err = fmt.Errorf("%s %s: %w", op.Kind, name, rec.Err)
	}
	is.mu.Lock()
	if sched >= is.warm {
		is.recs = append(is.recs, rec)
	} else if rec.Err != nil {
		is.warmFailed++
	}
	if rec.Err != nil && is.firstErr == nil {
		is.firstErr = rec.Err
	}
	is.mu.Unlock()
	return rec
}

// results returns the measured records, how many ops were issued in all
// (warm-up included) and how many of them were measured (ops loadgen gave up waiting for have no record), the warm-up
// failures and the first error seen. Call it after loadgen.Run returns.
func (is *issuer) results() (recs []opRec, all, issued, warmFailed int, firstErr error) {
	is.mu.Lock()
	defer is.mu.Unlock()
	return append([]opRec(nil), is.recs...), is.n, is.issued, is.warmFailed, is.firstErr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
