// Package primitive implements the compression primitive of Theorem 1 of
// Deep & Koutris (PODS 2018): a delay-balanced binary tree over f-intervals
// (Section 4.3) whose nodes carry split points chosen by Algorithm 1, a
// dictionary of τ-heavy (valuation, interval) pairs (Appendix A), and the
// lexicographic enumeration procedure of Algorithm 2 exposed as a pull
// iterator.
//
// The structure is parameterized by a fractional edge cover u of the query
// variables and a threshold τ; its space shrinks as Π_F |R_F|^{u_F} / τ^α
// where α is the slack of u for the free variables, while access requests
// are answered with delay O~(τ).
package primitive

import (
	"cqrep/internal/interval"
	"cqrep/internal/join"
	"cqrep/internal/relation"
)

// SplitInterval implements Algorithm 1: it returns a point c inside iv such
// that both halves I≺ = [lo, c) and I≻ = (c, hi] have T-cost at most
// T(iv)/2 (Proposition 8). The boolean is false when the interval carries
// no cost mass (T = 0), in which case no split is needed.
func SplitInterval(inst *join.Instance, est *join.Estimator, iv interval.Interval) (relation.Tuple, bool) {
	boxes := interval.Decompose(iv)
	mu := inst.Mu

	costs := make([]float64, len(boxes))
	total := 0.0
	for i, b := range boxes {
		costs[i] = est.TBox(b)
		total += costs[i]
	}
	if total <= 0 {
		return nil, false
	}

	// Choose the first box whose cumulative cost exceeds T/2.
	half := total / 2
	s, cum := -1, 0.0
	for i, c := range costs {
		cum += c
		if cum > half {
			s = i
			break
		}
	}
	if s < 0 {
		s = len(boxes) - 1
	}
	bs := boxes[s]

	// γ: cost strictly before the split point; Δ: cost of the current
	// prefix box.
	gamma := cum - costs[s]
	delta := costs[s]

	c := bs.Prefix.Clone()
	p := len(c)
	for j := p; j < mu; j++ {
		// I_j is the box's range at the first undetermined position, the
		// full domain afterwards.
		lo, loInc := relation.NegInf, true
		hi, hiInc := relation.PosInf, true
		if j == p && bs.HasRange {
			lo, loInc, hi, hiInc = bs.Lo, bs.LoInc, bs.Hi, bs.HiInc
		}
		target := half - gamma
		if delta < target {
			target = delta
		}
		cj, ok := searchSplitValue(inst, est, c, j, lo, loInc, hi, hiInc, target)
		if !ok {
			// No domain value in I_j: the remaining mass is zero; pin the
			// position to the interval's low end so the point stays valid.
			if loInc {
				cj = lo
			} else {
				cj = lo + 1
			}
		}
		// γ_j += T(⟨c1..c_{j-1}, I_j ∩ [⊥, c_j)⟩).
		below := interval.Box{Prefix: c, HasRange: true, Lo: lo, LoInc: loInc, Hi: cj, HiInc: false}
		if !below.EmptyRange() {
			gamma += est.TBox(below)
		}
		c = append(c, cj)
		// Δ_j = T(⟨c1..c_j⟩).
		delta = est.TBox(interval.Box{Prefix: c})
	}
	return c, true
}

// searchSplitValue finds, by binary search over the active domain of free
// position j restricted to the interval (lo, hi), the minimum value c such
// that T(⟨prefix, I_j ∩ [⊥, c]⟩) ≥ target (Lemma 3). The cost is monotone
// nondecreasing in c, and the last domain value always satisfies the bound
// when target ≤ Δ_{j-1} by construction.
func searchSplitValue(inst *join.Instance, est *join.Estimator, prefix relation.Tuple, j int,
	lo relation.Value, loInc bool, hi relation.Value, hiInc bool, target float64) (relation.Value, bool) {

	dom := inst.FreeDomain(j)
	// Restrict the domain slice to the interval.
	start := 0
	if loInc {
		start = searchGE(dom, lo)
	} else if lo < relation.PosInf {
		start = searchGE(dom, lo+1)
	} else {
		return 0, false
	}
	end := len(dom)
	if hiInc {
		end = searchGT(dom, hi)
	} else {
		end = searchGE(dom, hi)
	}
	if start >= end {
		return 0, false
	}

	cost := func(c relation.Value) float64 {
		b := interval.Box{Prefix: prefix, HasRange: true, Lo: lo, LoInc: loInc, Hi: c, HiInc: true}
		return est.TBox(b)
	}
	// Binary search the first index whose cumulative cost reaches target.
	lo2, hi2 := start, end-1
	for lo2 < hi2 {
		mid := (lo2 + hi2) / 2
		if cost(dom[mid]) >= target-1e-12 {
			hi2 = mid
		} else {
			lo2 = mid + 1
		}
	}
	return dom[lo2], true
}

func searchGE(dom []relation.Value, v relation.Value) int {
	lo, hi := 0, len(dom)
	for lo < hi {
		mid := (lo + hi) / 2
		if dom[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func searchGT(dom []relation.Value, v relation.Value) int {
	lo, hi := 0, len(dom)
	for lo < hi {
		mid := (lo + hi) / 2
		if dom[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
