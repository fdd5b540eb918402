package core

import (
	"context"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

func stops(causes ...solve.StopCause) []pool.Result {
	out := make([]pool.Result, len(causes))
	for i, c := range causes {
		out[i].Stats.Stop = c
	}
	return out
}

// TestPassStopRollsUpWorstCause: a pass reports the worst stop cause
// among its subproblems, so one cut subproblem is enough to keep the
// pass from claiming optimality.
func TestPassStopRollsUpWorstCause(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		res  []pool.Result
		oot  bool
		want solve.StopCause
	}{
		{"all optimal", bg, stops(solve.Optimal, solve.Optimal), false, solve.Optimal},
		{"infeasible parts do not lower it", bg, stops(solve.Optimal, solve.None), false, solve.Optimal},
		{"one cut subproblem", bg, stops(solve.Optimal, solve.Deadline, solve.Optimal), false, solve.Deadline},
		{"work limit", bg, stops(solve.NodeLimit, solve.Optimal), false, solve.NodeLimit},
		{"deadline beats work limit", bg, stops(solve.NodeLimit, solve.Deadline), false, solve.Deadline},
		{"every subproblem out of time", bg, stops(solve.None), true, solve.Deadline},
		{"caller cancellation wins", cancelled, stops(solve.Optimal), false, solve.Cancelled},
	}
	for _, tc := range cases {
		if got := passStop(tc.ctx, tc.res, tc.oot); got != tc.want {
			t.Errorf("%s: stop %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOptimizeCutSubproblemReportsDeadline runs a CG pass on an
// M1-shaped cluster whose straggler subproblem needs far more than the
// budget: that subproblem stops on its deadline, and the pass must say
// so instead of reporting optimal.
func TestOptimizeCutSubproblemReportsDeadline(t *testing.T) {
	ps := workload.M1
	ps.Seed = 104
	c, err := workload.Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(context.Background(), c.Problem, c.Original, Options{
		Budget:        40 * time.Millisecond,
		Policy:        selector.Fixed{Algorithm: pool.CG},
		SkipMigration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for _, r := range res.SubResults {
		if r.Stats.Stop == solve.Deadline {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no subproblem stopped on its deadline; the budget no longer binds")
	}
	if res.Stats.Stop != solve.Deadline {
		t.Fatalf("%d of %d subproblems stopped on their deadline, but the pass reports %v", cut, len(res.SubResults), res.Stats.Stop)
	}
}
