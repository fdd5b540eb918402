package cg

import (
	"context"

	"github.com/cloudsched/rasa/internal/cluster"
)

// SeededColumn is one column of the initial restricted master.
type SeededColumn struct {
	Group  int
	Counts []int
	Value  float64
}

// SeedColumns runs the seeding step of Solve on sp without a deadline
// and returns the seeded columns in insertion order.
func SeedColumns(sp *cluster.Subproblem) []SeededColumn {
	st := newState(context.Background(), sp, Options{})
	defer st.masterWS.Release()
	st.buildEdges()
	st.seedPatterns()
	out := make([]SeededColumn, len(st.pats))
	for i, p := range st.pats {
		out[i] = SeededColumn{Group: p.group, Counts: p.counts, Value: p.value}
	}
	return out
}
