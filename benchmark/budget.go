package main

import (
	"sort"
	"strings"

	"github.com/agardist/agar/internal/live"
)

// budget splits read latency into the layers on its critical path. For
// one op the columns add up to its latency exactly:
//
//	issue wait   scheduled arrival -> the issuer enters ReadDetailed
//	hint         the hint exchange
//	fetch        hint end -> the last first-wave chunk fetch ends, split into
//	             the injected WAN delay of that fetch and the rest
//	degraded     first wave end -> last degraded-wave fetch ends
//	decode       the erasure decode
//	reader self  the rest of ReadDetailed: planning, joins, bookkeeping
//	verify       ReadDetailed returned -> bytes judged
type budget struct {
	Pct       float64 `json:"pct"`
	TargetMS  float64 `json:"target_ms"`
	Ops       int     `json:"ops"`
	IssueWait float64 `json:"issue_wait_ms"`
	Hint      float64 `json:"hint_ms"`
	FetchWAN  float64 `json:"fetch_wan_ms"`
	FetchRest float64 `json:"fetch_rest_ms"`
	Degraded  float64 `json:"degraded_ms"`
	Decode    float64 `json:"decode_ms"`
	Self      float64 `json:"self_ms"`
	Verify    float64 `json:"verify_ms"`
}

// budgetTolerance is how far a budget's columns may sum from the
// percentile they explain, as a share of it.
const budgetTolerance = 0.05

// budgetHalfWidth is how many ops on each side of the percentile's rank
// a budget averages over.
const budgetHalfWidth = 5

func (b budget) sum() float64 {
	return b.IssueWait + b.Hint + b.FetchWAN + b.FetchRest + b.Degraded + b.Decode + b.Self + b.Verify
}

// gap is the budget's distance from its target, as a share of it.
func (b budget) gap() float64 {
	if b.TargetMS == 0 {
		return 0
	}
	g := (b.sum() - b.TargetMS) / b.TargetMS
	if g < 0 {
		return -g
	}
	return g
}

// isFetch reports whether a span is a first-wave chunk fetch.
func isFetch(name string) bool {
	return name == "cache-mget" || strings.HasPrefix(name, "store-mget:") ||
		strings.HasPrefix(name, "store-get:") || strings.HasPrefix(name, "peer-mget:")
}

// spanRegion is the region a store span talks to ("" for other spans).
func spanRegion(name string) string {
	if !strings.HasPrefix(name, "store-") && !strings.HasPrefix(name, "degraded-") {
		return ""
	}
	_, region, _ := strings.Cut(name, ":")
	return region
}

func spanEnd(s live.Span) float64 { return s.StartMS + s.DurMS }

// opBudget splits one traced read; wanMS maps a region to its injected
// delay.
func opBudget(r *opRec, wanMS map[string]float64) budget {
	b := budget{
		TargetMS:  r.latMS(),
		Ops:       1,
		IssueWait: ms(r.Call - r.Sched),
		Verify:    ms(r.Done - r.Ret),
	}
	call := ms(r.Ret - r.Call)
	var hintEnd, critEnd, degEnd float64
	critical := ""
	for _, s := range r.Trace.Spans {
		switch {
		case s.Name == "hint":
			b.Hint += s.DurMS
			hintEnd = max(hintEnd, spanEnd(s))
		case s.Name == "decode":
			b.Decode += s.DurMS
		case strings.HasPrefix(s.Name, "degraded-"):
			degEnd = max(degEnd, spanEnd(s))
		case isFetch(s.Name):
			if e := spanEnd(s); e > critEnd {
				critEnd, critical = e, s.Name
			}
		}
	}
	if critEnd > hintEnd {
		fetch := critEnd - hintEnd
		b.FetchWAN = min(wanMS[spanRegion(critical)], fetch)
		b.FetchRest = fetch - b.FetchWAN
	} else {
		critEnd = hintEnd
	}
	if degEnd > critEnd {
		b.Degraded = degEnd - critEnd
	}
	b.Self = call - b.Hint - b.FetchWAN - b.FetchRest - b.Degraded - b.Decode
	return b
}

// budgetAt explains one reported read percentile, targetMS: it averages
// the per-op budgets of the traced reads ranked within budgetHalfWidth of
// the first read at or above targetMS, so the columns sum to within
// budgetTolerance of the reported value itself.
func budgetAt(reads []*opRec, pct, targetMS float64, wanMS map[string]float64) budget {
	var traced []*opRec
	for _, r := range reads {
		if r.Trace != nil && r.Err == nil {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return budget{Pct: pct, TargetMS: targetMS}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].latMS() < traced[j].latMS() })
	rank := sort.Search(len(traced), func(i int) bool { return traced[i].latMS() >= targetMS })
	rank = min(rank, len(traced)-1)
	lo, hi := max(0, rank-budgetHalfWidth), min(len(traced)-1, rank+budgetHalfWidth)
	var acc budget
	for _, r := range traced[lo : hi+1] {
		b := opBudget(r, wanMS)
		acc.IssueWait += b.IssueWait
		acc.Hint += b.Hint
		acc.FetchWAN += b.FetchWAN
		acc.FetchRest += b.FetchRest
		acc.Degraded += b.Degraded
		acc.Decode += b.Decode
		acc.Self += b.Self
		acc.Verify += b.Verify
	}
	n := float64(hi - lo + 1)
	return budget{
		Pct: pct, TargetMS: targetMS, Ops: hi - lo + 1,
		IssueWait: acc.IssueWait / n, Hint: acc.Hint / n, FetchWAN: acc.FetchWAN / n,
		FetchRest: acc.FetchRest / n, Degraded: acc.Degraded / n, Decode: acc.Decode / n,
		Self: acc.Self / n, Verify: acc.Verify / n,
	}
}

// degradedWaves counts a read's degraded waves: each wave starts only
// after every fetch of the one before it has ended.
func degradedWaves(t *live.ReadTrace) int {
	waves, waveEnd := 0, -1.0
	for _, s := range t.Spans { // sorted by start offset
		if !strings.HasPrefix(s.Name, "degraded-") {
			continue
		}
		if s.StartMS >= waveEnd {
			waves++
		}
		waveEnd = max(waveEnd, spanEnd(s))
	}
	return waves
}
