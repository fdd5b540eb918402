package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLP generates a small LP with integer data, which makes
// degeneracy, redundant rows, and alternative optima common rather
// than exceptional. Negative RHS values exercise the dense kernel's
// row normalization against the sparse kernel's sign-free form.
func randomMixedLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := &Problem{NumVars: n}
	for j := 0; j < n; j++ {
		if c := rng.Intn(7) - 3; c != 0 {
			p.Objective = append(p.Objective, Coef{Var: j, Val: float64(c)})
		}
	}
	senses := []Sense{LE, LE, LE, GE, EQ} // LE-heavy, like the model layer
	for i := 0; i < m; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			// Redundant row: duplicate an earlier one verbatim.
			p.Rows = append(p.Rows, p.Rows[rng.Intn(i)])
			continue
		}
		var coefs []Coef
		if rng.Intn(5) == 0 {
			// Singleton row (presolve turns these into bounds).
			coefs = []Coef{{Var: rng.Intn(n), Val: float64(1 + rng.Intn(3))}}
		} else {
			for j := 0; j < n; j++ {
				if rng.Intn(10) < 6 {
					if c := rng.Intn(7) - 3; c != 0 {
						coefs = append(coefs, Coef{Var: j, Val: float64(c)})
					}
				}
			}
		}
		p.AddRow(coefs, senses[rng.Intn(len(senses))], float64(rng.Intn(13)-4))
	}
	return p
}

// checkCertificates validates an Optimal solution as a primal/dual
// optimality certificate for the original problem: primal feasibility
// (rows and variable bounds), dual sign conditions per row sense, dual
// feasibility of every column against its bounds, and strong duality.
// Bounds carry no reported duals: a column's reduced cost is the dual
// of whichever bound it sits on. Duals are non-unique under
// degeneracy, so the two kernels are compared through certificates,
// not coordinates.
func checkCertificates(t *testing.T, tag string, p *Problem, sol Solution) {
	t.Helper()
	const tol = 1e-6
	if len(sol.X) != p.NumVars || len(sol.Duals) != len(p.Rows) {
		t.Fatalf("%s: malformed solution: |X|=%d |Duals|=%d", tag, len(sol.X), len(sol.Duals))
	}
	for j, v := range sol.X {
		lo, up := p.bounds(j)
		if v < lo-tol || v > up+tol {
			t.Fatalf("%s: x[%d] = %g outside [%g, %g]", tag, j, v, lo, up)
		}
	}
	obj := 0.0
	for _, c := range p.Objective {
		obj += c.Val * sol.X[c.Var]
	}
	if math.Abs(obj-sol.Objective) > tol*(1+math.Abs(obj)) {
		t.Fatalf("%s: reported objective %g != c'x %g", tag, sol.Objective, obj)
	}
	dualObj := 0.0
	for i, r := range p.Rows {
		lhs := 0.0
		for _, c := range r.Coefs {
			lhs += c.Val * sol.X[c.Var]
		}
		switch r.Sense {
		case LE:
			if lhs > r.RHS+tol {
				t.Fatalf("%s: row %d violated: %g > %g", tag, i, lhs, r.RHS)
			}
			if sol.Duals[i] < -tol {
				t.Fatalf("%s: LE row %d has negative dual %g", tag, i, sol.Duals[i])
			}
		case GE:
			if lhs < r.RHS-tol {
				t.Fatalf("%s: row %d violated: %g < %g", tag, i, lhs, r.RHS)
			}
			if sol.Duals[i] > tol {
				t.Fatalf("%s: GE row %d has positive dual %g", tag, i, sol.Duals[i])
			}
		case EQ:
			if math.Abs(lhs-r.RHS) > tol {
				t.Fatalf("%s: row %d violated: %g != %g", tag, i, lhs, r.RHS)
			}
		}
		dualObj += sol.Duals[i] * r.RHS
	}
	// Dual feasibility: a column that prices out positive must sit at
	// its upper bound, one that prices out negative at its lower bound
	// (max problem); the bound terms join the dual objective.
	reduced := make([]float64, p.NumVars)
	for _, c := range p.Objective {
		reduced[c.Var] += c.Val
	}
	for i, r := range p.Rows {
		for _, c := range r.Coefs {
			reduced[c.Var] -= sol.Duals[i] * c.Val
		}
	}
	for j, d := range reduced {
		lo, up := p.bounds(j)
		switch {
		case d > tol:
			if sol.X[j] < up-tol {
				t.Fatalf("%s: column %d prices out positive below its upper bound: reduced cost %g", tag, j, d)
			}
			dualObj += d * up
		case d < -tol:
			if sol.X[j] > lo+tol {
				t.Fatalf("%s: column %d prices out negative above its lower bound: reduced cost %g", tag, j, d)
			}
			dualObj += d * lo
		}
	}
	if math.Abs(dualObj-obj) > 1e-5*(1+math.Abs(obj)) {
		t.Fatalf("%s: strong duality gap: b'y = %g, c'x = %g", tag, dualObj, obj)
	}
}

func solveWith(t *testing.T, p *Problem, k Kernel) Solution {
	t.Helper()
	sol, err := Solve(context.Background(), p, Options{Kernel: k})
	if err != nil {
		t.Fatalf("kernel %v: %v", k, err)
	}
	return sol
}

// withRandomBounds returns a copy of p with random integer variable
// bounds: raised lower bounds, finite upper bounds (0 included, the
// branch-and-bound down-branch shape), fixed variables, and now and
// then a crossed pair that makes the problem infeasible.
func withRandomBounds(rng *rand.Rand, p *Problem) *Problem {
	q := *p
	q.Lower = make([]float64, p.NumVars)
	q.Upper = make([]float64, p.NumVars)
	for j := range q.Upper {
		q.Upper[j] = math.Inf(1)
		switch rng.Intn(7) {
		case 0:
			q.Lower[j] = float64(1 + rng.Intn(2))
		case 1:
			q.Upper[j] = float64(rng.Intn(4))
		case 2:
			q.Lower[j] = float64(rng.Intn(3))
			q.Upper[j] = q.Lower[j] + float64(rng.Intn(3))
		case 3:
			if rng.Intn(4) == 0 {
				q.Lower[j], q.Upper[j] = 2, 1
			}
		}
	}
	return &q
}

// kernelsAgree solves p on both kernels and requires the same status,
// the same optimal objective to 1e-6, and a valid optimality
// certificate from each.
func kernelsAgree(t *testing.T, tag string, p *Problem) {
	t.Helper()
	ds := solveWith(t, p, KernelDense)
	ss := solveWith(t, p, KernelSparse)
	if ds.Status != ss.Status {
		t.Fatalf("%s: status mismatch dense=%v sparse=%v (problem %+v)", tag, ds.Status, ss.Status, p)
	}
	if ds.Status != Optimal {
		return
	}
	if math.Abs(ds.Objective-ss.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
		t.Fatalf("%s: objective mismatch dense=%.12g sparse=%.12g (problem %+v)", tag, ds.Objective, ss.Objective, p)
	}
	checkCertificates(t, tag+"/dense", p, ds)
	checkCertificates(t, tag+"/sparse", p, ss)
}

// TestKernelsAgreeRandom is the differential property test: both
// kernels must agree on status and (for Optimal) on the objective to
// 1e-6, and each kernel's duals must certify optimality — on each
// random LP as generated and on a copy with random variable bounds,
// which the sparse kernel takes natively and the dense kernel as rows.
func TestKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	brng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 800; trial++ {
		p := randomMixedLP(rng)
		kernelsAgree(t, fmt.Sprintf("trial %d", trial), p)
		kernelsAgree(t, fmt.Sprintf("trial %d bounded", trial), withRandomBounds(brng, p))
	}
}

// TestKernelsAgreeLarger drives both kernels over larger, sparser
// instances where the revised method's machinery (eta refactorization,
// presolve chains) actually engages.
func TestKernelsAgreeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	brng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(30)
		m := 20 + rng.Intn(30)
		p := &Problem{NumVars: n}
		for j := 0; j < n; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: float64(rng.Intn(9) - 4)})
		}
		for j := 0; j < n; j++ {
			// Assignment-style bound rows: presolve fodder.
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, float64(1+rng.Intn(3)))
		}
		for i := 0; i < m; i++ {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if rng.Intn(10) < 3 {
					coefs = append(coefs, Coef{Var: j, Val: float64(rng.Intn(5) + 1)})
				}
			}
			p.AddRow(coefs, LE, float64(5+rng.Intn(40)))
		}
		kernelsAgree(t, fmt.Sprintf("trial %d", trial), p)
		kernelsAgree(t, fmt.Sprintf("trial %d bounded", trial), withRandomBounds(brng, p))
	}
}

// TestCrossKernelWarmStart checks that a basis captured by one kernel
// warm-starts the other: the sparse kernel captures in the dense
// column layout, so the handles must be interchangeable in both
// directions, including across an appended branching row.
func TestCrossKernelWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		p := randomMixedLP(rng)
		for capK, solveK := range map[Kernel]Kernel{KernelSparse: KernelDense, KernelDense: KernelSparse} {
			w := AcquireWorkspace()
			parent, err := w.Solve(ctx, p, Options{Kernel: capK})
			if err != nil {
				t.Fatal(err)
			}
			if parent.Status != Optimal {
				w.Release()
				continue
			}
			basis := w.CaptureBasis(nil)

			// Child: tighten one variable with an appended bound row,
			// the branch-and-bound move.
			child := &Problem{NumVars: p.NumVars, Objective: p.Objective}
			child.Rows = append(child.Rows, p.Rows...)
			v := rng.Intn(p.NumVars)
			child.AddRow([]Coef{{Var: v, Val: 1}}, LE, math.Floor(parent.X[v]))

			warm, err := w.SolveFrom(ctx, child, Options{Kernel: solveK}, basis)
			if err != nil {
				t.Fatal(err)
			}
			cold := solveWith(t, child, KernelDense)
			if warm.Status != cold.Status {
				t.Fatalf("trial %d (%v->%v): warm status %v != cold %v", trial, capK, solveK, warm.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
					t.Fatalf("trial %d (%v->%v): warm obj %.12g != cold %.12g", trial, capK, solveK, warm.Objective, cold.Objective)
				}
				checkCertificates(t, "warm", child, warm)
			}
			w.Release()
		}
	}
}

// TestSparseAnytimeIterLimit pins the anytime contract on the sparse
// kernel: an exhausted pivot budget during phase 2 still reports the
// current feasible point; during phase 1 it reports IterLimit with no
// point, exactly like the dense kernel.
func TestSparseAnytimeIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sawPoint := false
	for trial := 0; trial < 300 && !sawPoint; trial++ {
		p := randomMixedLP(rng)
		for budget := 1; budget <= 6; budget++ {
			sol, err := Solve(context.Background(), p, Options{Kernel: KernelSparse, MaxIter: budget})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.SimplexIters > budget {
				t.Fatalf("budget %d exceeded: %d pivots", budget, sol.Stats.SimplexIters)
			}
			if sol.Status == IterLimit && sol.X != nil {
				sawPoint = true
				for i, r := range p.Rows {
					lhs := 0.0
					for _, c := range r.Coefs {
						lhs += c.Val * sol.X[c.Var]
					}
					switch r.Sense {
					case LE:
						if lhs > r.RHS+1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					case GE:
						if lhs < r.RHS-1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					case EQ:
						if math.Abs(lhs-r.RHS) > 1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					}
				}
			}
		}
	}
	if !sawPoint {
		t.Fatal("no trial produced an IterLimit solution with a feasible point")
	}
}
