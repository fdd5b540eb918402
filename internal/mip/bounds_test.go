package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/cloudsched/rasa/internal/lp"
)

// pricingMIP builds a CG pricing-shaped MIP: integer pattern counts
// p_s in [0, d_s] (as upper bounds), continuous affinity variables a_e
// capped by both endpoints' fractions (a_e <= p_i/d_i, a_e <= p_j/d_j),
// resource capacity rows and anti-affinity caps. The objective pays
// w_e per a_e and a signed price per p_s, like reduced costs do.
func pricingMIP(rng *rand.Rand, nS int) *Problem {
	nE := nS + rng.Intn(nS)
	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	for len(edges) < nE {
		i, j := rng.Intn(nS), rng.Intn(nS)
		if i != j {
			edges = append(edges, edge{i, j, 0.2 + rng.Float64()})
		}
	}
	n := nS + len(edges)
	p := &Problem{LP: lp.Problem{NumVars: n, Upper: make([]float64, n)}, Integer: make([]bool, n)}
	d := make([]float64, nS)
	for s := 0; s < nS; s++ {
		d[s] = float64(1 + rng.Intn(6))
		p.Integer[s] = true
		p.LP.Upper[s] = d[s]
		p.LP.Objective = append(p.LP.Objective, lp.Coef{Var: s, Val: 0.05 - 0.2*rng.Float64()})
	}
	for e, ed := range edges {
		v := nS + e
		p.LP.Upper[v] = math.Inf(1)
		p.LP.Objective = append(p.LP.Objective, lp.Coef{Var: v, Val: ed.w})
		p.LP.AddRow([]lp.Coef{{Var: v, Val: 1}, {Var: ed.i, Val: -1 / d[ed.i]}}, lp.LE, 0)
		p.LP.AddRow([]lp.Coef{{Var: v, Val: 1}, {Var: ed.j, Val: -1 / d[ed.j]}}, lp.LE, 0)
	}
	for r := 0; r < 2; r++ {
		var row []lp.Coef
		for s := 0; s < nS; s++ {
			row = append(row, lp.Coef{Var: s, Val: 0.5 + rng.Float64()*2})
		}
		p.LP.AddRow(row, lp.LE, 4+rng.Float64()*float64(2*nS))
	}
	if nS > 3 {
		p.LP.AddRow([]lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}, {Var: 2, Val: 1}}, lp.LE, float64(1+rng.Intn(3)))
	}
	return p
}

// boundsAsRows returns p with every finite upper bound written as a
// singleton row instead.
func boundsAsRows(p *Problem) *Problem {
	q := &Problem{LP: lp.Problem{NumVars: p.LP.NumVars, Objective: p.LP.Objective}, Integer: p.Integer}
	q.LP.Rows = append(q.LP.Rows, p.LP.Rows...)
	for j, u := range p.LP.Upper {
		if !math.IsInf(u, 1) {
			q.LP.AddRow([]lp.Coef{{Var: j, Val: 1}}, lp.LE, u)
		}
	}
	return q
}

// TestBoundBranchingMatchesRowFormulation: on seeded pricing-shaped
// MIPs, branch and bound on the bounded formulation and on the
// formulation with the bounds as explicit rows reach the same optimal
// objective.
func TestBoundBranchingMatchesRowFormulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	branched := 0
	for trial := 0; trial < 40; trial++ {
		p := pricingMIP(rng, 4+rng.Intn(8))
		bounded, err := Solve(ctx, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Solve(ctx, boundsAsRows(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rows.Status != bounded.Status {
			t.Fatalf("trial %d: bounds-as-rows status %v, bounded %v", trial, rows.Status, bounded.Status)
		}
		if math.Abs(rows.Objective-bounded.Objective) > 1e-6*(1+math.Abs(bounded.Objective)) {
			t.Fatalf("trial %d: bounds-as-rows objective %.12g, bounded %.12g", trial, rows.Objective, bounded.Objective)
		}
		if bounded.Status != Optimal {
			t.Fatalf("trial %d: bounded solve not optimal: %v", trial, bounded.Status)
		}
		for j, u := range p.LP.Upper {
			if bounded.X[j] > u+1e-6 {
				t.Fatalf("trial %d: x[%d] = %g above its bound %g", trial, j, bounded.X[j], u)
			}
		}
		if bounded.Nodes > 1 {
			branched++
		}
	}
	if branched < 10 {
		t.Fatalf("only %d of 40 trials branched", branched)
	}
}

// BenchmarkPricingMIP solves one pricing-shaped MIP per iteration (the
// CG pricing hot path) and reports allocations per solve.
func BenchmarkPricingMIP(b *testing.B) {
	p := pricingMIP(rand.New(rand.NewSource(3)), 14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
