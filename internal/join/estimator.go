package join

import (
	"fmt"
	"math"

	"cqrep/internal/fractional"
	"cqrep/internal/interval"
	"cqrep/internal/relation"
)

// Estimator evaluates the T(·) cost functions of Section 4.2: upper bounds
// on the time to evaluate the join restricted to an f-box or f-interval,
// derived from the AGM inequality with the slack-scaled cover
// û = u / α(V_f).
type Estimator struct {
	inst *Instance
	// U is the fractional edge cover of all variables.
	U fractional.Cover
	// Alpha is the slack α(V_f) of U for the free variables (eq. 2).
	Alpha float64
	// UHat is U / Alpha, a fractional edge cover of the free variables.
	UHat []float64
}

// NewEstimator validates that u covers all variables and computes the
// slack for the view's free variables. Views with at least one free
// variable are required (boolean views bypass the Theorem-1 structure).
func NewEstimator(inst *Instance, u fractional.Cover) (*Estimator, error) {
	h := inst.NV.Hypergraph()
	all := make([]int, h.N)
	for i := range all {
		all[i] = i
	}
	if !u.Covers(h, all) {
		return nil, fmt.Errorf("join: weight assignment %v is not a fractional edge cover of the query", u)
	}
	if inst.Mu == 0 {
		return nil, fmt.Errorf("join: estimator requires at least one free variable")
	}
	alpha := fractional.Slack(h, u, inst.NV.Free)
	uhat := make([]float64, len(u))
	for i, w := range u {
		uhat[i] = w / alpha
	}
	return &Estimator{inst: inst, U: u, Alpha: alpha, UHat: uhat}, nil
}

// TBox returns T(B) = Π_F |R_F ⋉ B|^{û_F}.
func (e *Estimator) TBox(b interval.Box) float64 {
	t := 1.0
	for ai := range e.inst.Atoms {
		c := e.inst.CountBox(ai, b)
		if c == 0 {
			return 0
		}
		if e.UHat[ai] != 0 {
			t *= math.Pow(float64(c), e.UHat[ai])
		}
	}
	return t
}

// TBoxBound returns T(v_b, B) = Π_F |R_F(v_b) ⋉ B|^{û_F}.
func (e *Estimator) TBoxBound(vb relation.Tuple, b interval.Box) float64 {
	t := 1.0
	for ai := range e.inst.Atoms {
		c := e.inst.CountBoxBound(ai, vb, b)
		if c == 0 {
			return 0
		}
		if e.UHat[ai] != 0 {
			t *= math.Pow(float64(c), e.UHat[ai])
		}
	}
	return t
}

// Rows is one bound valuation's rows in every atom: per atom, the range of
// its BoundFirst index whose bound columns equal the valuation. A caller
// that prices one valuation against many boxes seeks it once (Rows) and
// then counts each box within those ranges (TBoxRows).
type Rows []rng

// Rows returns vb's rows, reusing dst's storage.
func (e *Estimator) Rows(dst Rows, vb relation.Tuple) Rows {
	dst = dst[:0]
	for _, a := range e.inst.Atoms {
		lo, hi := a.boundRange(vb)
		dst = append(dst, rng{lo, hi})
	}
	return dst
}

// TBoxRows returns T(v_b, B) for the valuation whose rows are rows: the
// same value as TBoxBound(v_b, B), without seeking the valuation again.
func (e *Estimator) TBoxRows(rows Rows, b interval.Box) float64 {
	t := 1.0
	for ai, a := range e.inst.Atoms {
		c := 0
		if r := rows[ai]; r.lo < r.hi {
			lo, hi := a.boxRange(a.BoundFirst, r.lo, r.hi, len(a.BoundPos), b)
			c = hi - lo
		}
		if c == 0 {
			return 0
		}
		if e.UHat[ai] != 0 {
			t *= math.Pow(float64(c), e.UHat[ai])
		}
	}
	return t
}

// TInterval returns T(I) = Σ_{B ∈ B(I)} T(B).
func (e *Estimator) TInterval(iv interval.Interval) float64 {
	t := 0.0
	for _, b := range interval.Decompose(iv) {
		t += e.TBox(b)
	}
	return t
}

// TIntervalBound returns T(v_b, I) = Σ_{B ∈ B(I)} T(v_b, B).
func (e *Estimator) TIntervalBound(vb relation.Tuple, iv interval.Interval) float64 {
	t := 0.0
	for _, b := range interval.Decompose(iv) {
		t += e.TBoxBound(vb, b)
	}
	return t
}
