package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
)

// Deployment shape shared by every workload: the paper's six regions,
// RS(9,3); the client's region is the workload's.
const (
	codeK, codeM = 9, 3
	skew         = 1.1
	// seedDrawsPerObject sizes the Zipf sequence that seeds popularity
	// before the one knapsack run.
	seedDrawsPerObject = 50
	// probeKeys is the key space of the write probe that read-only
	// workloads close with, geo-update's; probe keys are never read.
	probeKeys = geoObjects
)

// deployment is one booted cluster with the client the workload drives.
type deployment struct {
	region geo.RegionID
	cl     *live.Cluster
	reader *live.NetworkReader
	writer *live.NetworkWriter
	judge  *judge
	config *core.Config
	// steps holds each set-up step's duration; total is boot through the
	// first scheduled op.
	steps []step
	total time.Duration
	// wanMS is the injected one-way delay per region name, in ms.
	wanMS map[string]float64
}

type step struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
}

func objectName(i int) string { return "obj-" + strconv.Itoa(i) }

// setUp boots a cluster for w and brings it to the point where the first
// op can be scheduled: boot, load every object, seed popularity with a
// Zipf sequence, run the knapsack once, connect the client.
func setUp(w workload, seed int64) (*deployment, error) {
	region, err := geo.ParseRegion(w.Client)
	if err != nil {
		return nil, err
	}
	d := &deployment{region: region}
	t0 := time.Now()
	timed := func(name string, f func() error) error {
		s := time.Now()
		err := f()
		d.steps = append(d.steps, step{Name: name, Start: s.Sub(t0), Dur: time.Since(s)})
		if err != nil {
			return fmt.Errorf("set-up %s: %w", name, err)
		}
		return nil
	}
	codec, err := erasure.New(codeK, codeM)
	if err != nil {
		return nil, err
	}
	chunk := int64(codec.ChunkSize(w.ObjectBytes))
	err = timed("boot", func() (err error) {
		d.cl, err = live.StartCluster(live.ClusterConfig{
			K: codeK, M: codeM,
			ClientRegion: region,
			CacheBytes:   int64(w.CacheSlots) * chunk,
			ChunkBytes:   chunk,
			// No background reconfiguration may land in the measured
			// window: the one knapsack run below is the configuration.
			ReconfigPeriod: 24 * time.Hour,
			DelayScale:     w.DelayScale,
			Dispatch:       live.DispatchShard,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	d.judge = newJudge(w.Objects+probeKeys, w.ObjectBytes)
	if err := timed("load", func() error {
		for i := 0; i < w.Objects; i++ {
			name := objectName(i)
			if err := d.cl.Backend().PutObject(name, makePayload(name, 0, w.ObjectBytes)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	if err := timed("seed-popularity", func() error {
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, skew, 1, uint64(w.Objects-1))
		for i := 0; i < seedDrawsPerObject*w.Objects; i++ {
			d.cl.Node().HandleRead(objectName(int(z.Uint64())))
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	if err := timed("reconfigure", func() error {
		d.config = d.cl.Node().ForceReconfigure()
		if d.config == nil || d.config.Weight == 0 {
			return fmt.Errorf("knapsack configured nothing")
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	if err := timed("connect", func() (err error) {
		d.reader, err = live.NewNetworkReader(d.cl, region)
		d.writer = live.NewNetworkWriter(d.cl, region)
		return err
	}); err != nil {
		return fail(err)
	}
	d.total = time.Since(t0)
	d.wanMS = make(map[string]float64)
	for _, r := range geo.DefaultRegions() {
		d.wanMS[r.String()] = ms(geo.DefaultMatrix().Get(region, r)) * w.DelayScale
	}
	return d, nil
}

// stepDur returns the named set-up step's duration.
func (d *deployment) stepDur(name string) time.Duration {
	for _, s := range d.steps {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}

func (d *deployment) close() {
	if d.reader != nil {
		d.reader.Close()
	}
	if d.writer != nil {
		d.writer.Close()
	}
	if d.cl != nil {
		d.cl.Close()
	}
}
