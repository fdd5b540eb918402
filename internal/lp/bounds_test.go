package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomBoundedLP generates a packing LP with fractional data and
// random variable bounds, so optimal vertices are usually fractional
// and a branching step has something to cut off.
func randomBoundedLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(6)
	p := &Problem{NumVars: n, Lower: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Objective = append(p.Objective, Coef{Var: j, Val: rng.Float64()*4 - 0.5})
		p.Upper[j] = math.Inf(1)
		switch rng.Intn(4) {
		case 0:
			p.Upper[j] = float64(1 + rng.Intn(6))
		case 1:
			p.Lower[j] = float64(rng.Intn(2))
			p.Upper[j] = p.Lower[j] + float64(1+rng.Intn(4))
		}
	}
	for i := 0; i < 2+rng.Intn(5); i++ {
		var cs []Coef
		for j := 0; j < n; j++ {
			if v := rng.Float64() * 3; v > 0.8 {
				cs = append(cs, Coef{Var: j, Val: v})
			}
		}
		if len(cs) == 0 {
			cs = []Coef{{Var: rng.Intn(n), Val: 1}}
		}
		sense := LE
		if rng.Intn(6) == 0 {
			sense = GE
		}
		p.AddRow(cs, sense, 2+rng.Float64()*10)
	}
	return p
}

// fractionalVar picks a variable with a fractional value, or -1.
func fractionalVar(rng *rand.Rand, x []float64) int {
	var cands []int
	for j, v := range x {
		if f := v - math.Floor(v); f > 1e-6 && f < 1-1e-6 {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

// branchOn returns a copy of p's bounds with variable j tightened the
// way a branch-and-bound child tightens it: up=false caps it at
// floor(v), up=true raises its lower bound to floor(v)+1.
func branchOn(p *Problem, j int, v float64, up bool) (lo, hi []float64) {
	lo = make([]float64, p.NumVars)
	hi = make([]float64, p.NumVars)
	for k := range lo {
		lo[k], hi[k] = p.bounds(k)
	}
	if up {
		lo[j] = math.Max(lo[j], math.Floor(v)+1)
	} else {
		hi[j] = math.Min(hi[j], math.Floor(v))
	}
	return lo, hi
}

// TestWarmAfterBoundChangeMatchesCold is the branch-and-bound shape on
// bounds: solve a bounded parent, capture its basis, tighten one
// variable's bound and re-solve warm. For every pair of capturing and
// solving kernels the warm child must match a cold solve of the child
// on status and objective and carry a valid certificate. The dense
// kernel writes bounds as rows and solves the bounded child cold; the
// sparse kernel must re-solve every feasible child on the warm path
// from a sparse capture.
func TestWarmAfterBoundChangeMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ctx := context.Background()
	sparseChildren, warmed := 0, 0 // feasible children of sparse captures
	for trial := 0; trial < 300; trial++ {
		p := randomBoundedLP(rng)
		for _, pair := range [][2]Kernel{{KernelSparse, KernelSparse}, {KernelSparse, KernelDense}, {KernelDense, KernelSparse}, {KernelDense, KernelDense}} {
			w := AcquireWorkspace()
			parent, err := w.Solve(ctx, p, Options{Kernel: pair[0]})
			if err != nil {
				t.Fatal(err)
			}
			if parent.Status != Optimal {
				w.Release()
				continue
			}
			basis := w.CaptureBasis(nil)
			j := fractionalVar(rng, parent.X)
			if j < 0 {
				w.Release()
				continue
			}
			child := *p
			child.Lower, child.Upper = branchOn(p, j, parent.X[j], rng.Intn(2) == 0)

			warm, err := w.SolveFrom(ctx, &child, Options{Kernel: pair[1]}, basis)
			if err != nil {
				t.Fatal(err)
			}
			cold := solveWith(t, &child, KernelDense)
			if warm.Status != cold.Status {
				t.Fatalf("trial %d (%v->%v): warm status %v != cold %v", trial, pair[0], pair[1], warm.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
					t.Fatalf("trial %d (%v->%v): warm obj %.12g != cold %.12g", trial, pair[0], pair[1], warm.Objective, cold.Objective)
				}
				checkCertificates(t, "warm", &child, warm)
			}
			if pair[1] == KernelDense && warm.Stats.WarmPivots > 0 {
				t.Fatalf("trial %d (%v->%v): dense kernel warm-started a bounded child", trial, pair[0], pair[1])
			}
			if pair == [2]Kernel{KernelSparse, KernelSparse} && cold.Status == Optimal {
				sparseChildren++
				if warm.Stats.ColdPivots == 0 && warm.Stats.WarmPivots > 0 {
					warmed++
				}
			}
			w.Release()
		}
	}
	if sparseChildren < 100 || warmed < sparseChildren {
		t.Fatalf("only %d of %d feasible sparse children re-solved on the warm path", warmed, sparseChildren)
	}
}

// TestKeepFormBoundSequence drives a kept problem the way the
// branch-and-bound solver does: one Problem value whose bound slices
// are rewritten in place between warm solves, each warm-started from
// the previous optimal basis. Every solve must match a cold solve of a
// fresh copy, and a parent vertex with variables at their upper bound
// must be restored exactly (no pivots when the bounds did not change).
func TestKeepFormBoundSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ctx := context.Background()
	for trial := 0; trial < 150; trial++ {
		base := randomBoundedLP(rng)
		kept := *base
		kept.Lower = append([]float64(nil), base.Lower...)
		kept.Upper = append([]float64(nil), base.Upper...)
		w := AcquireWorkspace()
		w.KeepForm(&kept)
		var from *Basis
		for step := 0; step < 6; step++ {
			sol, err := w.SolveFrom(ctx, &kept, Options{Kernel: KernelSparse}, from)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := kept
			snapshot.Lower = append([]float64(nil), kept.Lower...)
			snapshot.Upper = append([]float64(nil), kept.Upper...)
			cold := solveWith(t, &snapshot, KernelDense)
			if sol.Status != cold.Status {
				t.Fatalf("trial %d step %d: kept status %v != cold %v", trial, step, sol.Status, cold.Status)
			}
			if cold.Status != Optimal {
				break
			}
			if math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d step %d: kept obj %.12g != cold %.12g", trial, step, sol.Objective, cold.Objective)
			}
			checkCertificates(t, "kept", &snapshot, sol)
			from = w.CaptureBasis(nil)

			// Re-solving from the basis just captured, with unchanged
			// bounds, must start at the optimal vertex. (The first
			// solve is cold; its presolved capture may name another
			// basis of a degenerate vertex.)
			again, err := w.SolveFrom(ctx, &kept, Options{Kernel: KernelSparse}, from)
			if err != nil {
				t.Fatal(err)
			}
			if again.Status != Optimal || math.Abs(again.Objective-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
				t.Fatalf("trial %d step %d: re-solve from own basis moved: %v %.12g != %.12g", trial, step, again.Status, again.Objective, sol.Objective)
			}
			if step > 0 && again.Stats.SimplexIters != 0 {
				t.Fatalf("trial %d step %d: re-solve from own basis took %d pivots", trial, step, again.Stats.SimplexIters)
			}

			j := fractionalVar(rng, sol.X)
			if j < 0 {
				break
			}
			lo, hi := branchOn(&kept, j, sol.X[j], rng.Intn(2) == 0)
			copy(kept.Lower, lo)
			copy(kept.Upper, hi)
		}
		w.Release()
	}
}

// TestBoundValidation rejects malformed bound vectors.
func TestBoundValidation(t *testing.T) {
	bad := []*Problem{
		{NumVars: 2, Lower: []float64{0}},
		{NumVars: 1, Lower: []float64{-1}},
		{NumVars: 1, Lower: []float64{math.Inf(1)}},
		{NumVars: 1, Upper: []float64{math.NaN()}},
		{NumVars: 1, Upper: []float64{-2}},
	}
	for i, p := range bad {
		if _, err := Solve(context.Background(), p, Options{}); err == nil {
			t.Fatalf("case %d: malformed bounds accepted", i)
		}
	}
}

// TestKeepFormInterleavedProblem: warm solves of another problem in
// the same workspace overwrite the sparse form, so the next warm solve
// of the kept problem must rebuild it rather than reuse the other
// problem's matrix.
func TestKeepFormInterleavedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ctx := context.Background()
	compared := 0
	for trial := 0; trial < 60; trial++ {
		kept, other := randomBoundedLP(rng), randomBoundedLP(rng)
		w := AcquireWorkspace()
		w.KeepForm(kept)
		sols := map[*Problem]*Basis{}
		for _, p := range []*Problem{kept, other, kept, other, kept, other} {
			sol, err := w.SolveFrom(ctx, p, Options{Kernel: KernelSparse}, sols[p])
			if err != nil {
				t.Fatal(err)
			}
			cold := solveWith(t, p, KernelDense)
			if sol.Status != cold.Status {
				t.Fatalf("trial %d: status %v != cold %v", trial, sol.Status, cold.Status)
			}
			if cold.Status != Optimal {
				continue
			}
			if math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: objective %.12g != cold %.12g", trial, sol.Objective, cold.Objective)
			}
			sols[p] = w.CaptureBasis(nil)
			compared++
		}
		w.Release()
	}
	if compared < 100 {
		t.Fatalf("only %d optimal solves compared", compared)
	}
}
