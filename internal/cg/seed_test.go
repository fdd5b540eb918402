package cg_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/cloudsched/rasa/internal/cg"
	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/model"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/workload"
)

// m1Subproblems partitions the M1-shaped cluster of the given preset
// seed the way the server does by default (multistage, default
// options).
func m1Subproblems(t *testing.T, seed int64) []*cluster.Subproblem {
	t.Helper()
	ps := workload.M1
	ps.Seed = seed
	c, err := workload.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pres.Subproblems
}

// refSeed is the seeding step as it was written before incremental
// feasibility: every candidate container re-checks the whole pattern
// with model.PatternFeasible and prices its marginal gain with a scan
// over every edge. The incremental version must reproduce its columns
// bit for bit.
type refSeed struct {
	sp    *cluster.Subproblem
	edges []struct {
		i, j int
		w    float64
	}
	bonus float64
	seen  map[string]bool
	out   []cg.SeededColumn
}

func newRefSeed(sp *cluster.Subproblem) *refSeed {
	r := &refSeed{sp: sp, seen: map[string]bool{}}
	local := make(map[int]int, len(sp.Services))
	for si, s := range sp.Services {
		local[s] = si
	}
	for _, e := range sp.P.Affinity.Edges() {
		i, okI := local[e.U]
		j, okJ := local[e.V]
		if !okI || !okJ {
			continue
		}
		if i > j {
			i, j = j, i
		}
		r.edges = append(r.edges, struct {
			i, j int
			w    float64
		}{i, j, e.Weight})
	}
	sort.Slice(r.edges, func(a, b int) bool {
		if r.edges[a].i != r.edges[b].i {
			return r.edges[a].i < r.edges[b].i
		}
		return r.edges[a].j < r.edges[b].j
	})
	totalW := 0.0
	for _, e := range r.edges {
		totalW += e.w
	}
	if tc := sp.TotalContainers(); tc > 0 {
		r.bonus = 1e-4 * (totalW + 1) / float64(tc)
	}
	return r
}

func (r *refSeed) replicas(si int) float64 {
	return float64(r.sp.P.Services[r.sp.Services[si]].Replicas)
}

func (r *refSeed) value(counts []int) float64 {
	var v float64
	for _, e := range r.edges {
		if counts[e.i] == 0 || counts[e.j] == 0 {
			continue
		}
		v += e.w * math.Min(float64(counts[e.i])/r.replicas(e.i), float64(counts[e.j])/r.replicas(e.j))
	}
	for _, c := range counts {
		v += r.bonus * float64(c)
	}
	return v
}

func (r *refSeed) add(counts []int, group int) {
	key := fmt.Sprintf("%d:%v", group, counts)
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.out = append(r.out, cg.SeededColumn{Group: group, Counts: append([]int(nil), counts...), Value: r.value(counts)})
}

func (r *refSeed) marginalGain(counts []int, si int) float64 {
	gain := r.bonus
	ci := float64(counts[si])
	di := r.replicas(si)
	for _, e := range r.edges {
		var sj int
		switch {
		case e.i == si:
			sj = e.j
		case e.j == si:
			sj = e.i
		default:
			continue
		}
		if counts[sj] == 0 {
			continue
		}
		dj := r.replicas(sj)
		before := math.Min((ci-1)/di, float64(counts[sj])/dj)
		after := math.Min(ci/di, float64(counts[sj])/dj)
		gain += e.w * (after - before)
	}
	return gain
}

func (r *refSeed) run() []cg.SeededColumn {
	sp := r.sp
	nS := len(sp.Services)
	groups := model.GroupMachines(sp)
	for g := range groups {
		r.add(make([]int, nS), g)
	}
	remaining := make([]int, nS)
	for si, s := range sp.Services {
		remaining[si] = sp.P.Services[s].Replicas
	}
	for gi := range groups {
		g := &groups[gi]
		for k := 0; k < g.Count(); k++ {
			counts := make([]int, nS)
			used := make(cluster.Resources, len(sp.P.ResourceNames))
			for {
				best, bestGain := -1, 0.0
				for si := 0; si < nS; si++ {
					if remaining[si] == 0 || !g.CanHost[si] {
						continue
					}
					req := sp.P.Services[sp.Services[si]].Request
					if !used.Add(req).Fits(g.Capacity) {
						continue
					}
					counts[si]++
					if !model.PatternFeasible(sp, g, counts) {
						counts[si]--
						continue
					}
					gain := r.marginalGain(counts, si)
					counts[si]--
					if gain > bestGain {
						best, bestGain = si, gain
					}
				}
				if best < 0 {
					break
				}
				counts[best]++
				remaining[best]--
				used = used.Add(sp.P.Services[sp.Services[best]].Request)
			}
			r.add(counts, gi)
		}
	}
	return r.out
}

// TestSeedColumnsMatchReference pins the incremental seeding step to
// the full-recheck reference on every multistage subproblem of two
// M1-shaped clusters: same columns, same order, bit-identical values.
func TestSeedColumnsMatchReference(t *testing.T) {
	checked := 0
	for _, seed := range []int64{102, 104} {
		for i, sp := range m1Subproblems(t, seed) {
			got := cg.SeedColumns(sp)
			want := newRefSeed(sp).run()
			if len(got) != len(want) {
				t.Fatalf("M1/%d sp%d: %d seeded columns, reference %d", seed, i, len(got), len(want))
			}
			for c := range want {
				g, w := got[c], want[c]
				if g.Group != w.Group || fmt.Sprint(g.Counts) != fmt.Sprint(w.Counts) || g.Value != w.Value {
					t.Fatalf("M1/%d sp%d column %d: got group %d %v (%.17g), reference group %d %v (%.17g)",
						seed, i, c, g.Group, g.Counts, g.Value, w.Group, w.Counts, w.Value)
				}
			}
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("no columns compared")
	}
}

// TestSolveObjectiveM1Stragglers pins the converged CG objective of the
// two straggler subproblems of the converge benchmark clusters (the
// longest CG pricing loops among M1 seeds 101-108), so a solver change
// that speeds them up cannot silently move their answer.
func TestSolveObjectiveM1Stragglers(t *testing.T) {
	cases := []struct {
		seed int64
		sp   int
		want float64
	}{
		{102, 3, 0.0541578782616},
		{104, 7, 0.0155546909207},
	}
	for _, tc := range cases {
		sp := m1Subproblems(t, tc.seed)[tc.sp]
		res, err := cg.Solve(context.Background(), sp, cg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Objective-tc.want) > 1e-9 {
			t.Fatalf("M1/%d sp%d: objective %.12g, want %.12g", tc.seed, tc.sp, res.Objective, tc.want)
		}
	}
}
