package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// pctLadder lists the percentiles a p99 may fall back to, highest first.
var pctLadder = []float64{95, 90, 75, 50}

// rankOf is the nearest-rank index of percentile p in n sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(r, n-1))
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - 1 - rankOf(n, p) }

// reportablePct is the percentile to report when want is asked for: want
// itself when it has minBeyond samples beyond it, else the highest ladder
// percentile that does (50 when none does).
func reportablePct(n int, want float64) float64 {
	if beyond(n, want) >= minBeyond {
		return want
	}
	for _, p := range pctLadder {
		if p < want && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is one timing distribution: its sample count, median, and the tail
// the percentile rule allows (TailPct records which percentile that is).
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summarize sorts vals in place and reads the median and the tail nearest
// to p99 that the percentile rule allows.
func summarize(vals []float64) dist {
	if len(vals) == 0 {
		return dist{}
	}
	sort.Float64s(vals)
	p := reportablePct(len(vals), 99)
	return dist{N: len(vals), P50: vals[rankOf(len(vals), 50)], Tail: vals[rankOf(len(vals), p)], TailPct: p}
}

// ratio is num/den with an empty base reading as zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perK scales a count to a rate per thousand of base.
func perK(count, base float64) float64 { return 1000 * ratio(count, base) }

// rung is one step of an ascending rate ladder.
type rung struct {
	Offered  float64 `json:"offered_ops"`
	Achieved float64 `json:"achieved_ops"`
	P99MS    float64 `json:"read_p99_ms"`
	Failed   int     `json:"failed"`
}

// rungEfficiency is the share of the offered rate a rung must achieve.
const rungEfficiency = 0.95

// maxPassingRung applies the max_rate_ops rule to an ascending ladder: the
// highest offered rate below the first rung that fell short — achieved
// under 95% of offered, read p99 at or over limitMS, or any failed op.
// Zero when the first rung already fails.
func maxPassingRung(rungs []rung, limitMS float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.Achieved < rungEfficiency*r.Offered || r.P99MS >= limitMS || r.Failed > 0 {
			break
		}
		best = r.Offered
	}
	return best
}
