package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
)

// passTrace is one pass replayed layer by layer, with a span around
// each call into a layer's public functions.
type passTrace struct {
	Decode, Partition, Decide, Solve, Merge, Migrate, Total time.Duration

	Subproblems, MaxSubContainers int
	LostShare                     float64
	MIPPicks                      int

	Crit          int // critical-path subproblem: the longest solve
	CritWall      time.Duration
	CritAlg       string
	CritCont      int
	CritPricing   time.Duration
	SubWall       time.Duration // summed subproblem solve wall
	NodeWall      time.Duration // summed wall of solves that branched
	DeadlineStops int
	MIPFloors     int
	Stats         solve.Stats // summed subproblem solver effort

	Moves, Steps, Relocations int
	Gain                      float64
}

func policyFor(kind string) selector.Policy {
	if kind == "mip" {
		return selector.Fixed{Algorithm: pool.MIP}
	}
	return selector.Heuristic{}
}

// tracePass replays one job the way core.Optimize runs it, from the
// same snapshot bytes and the options the service derives from the
// job's request.
func tracePass(in clusterInput, ps passSpec) (passTrace, error) {
	var tr passTrace
	t := time.Now()
	p, cur, err := snapshot.Load(bytes.NewReader(in.Snapshot))
	if err != nil {
		return tr, err
	}
	tr.Decode = time.Since(t)

	// The service pads the job context past the budget by a grace
	// period (server.budgetGrace).
	ctx, cancel := context.WithTimeout(context.Background(), ps.Budget+5*time.Second)
	defer cancel()
	start := time.Now()
	if err := p.Validate(); err != nil {
		return tr, err
	}
	opts, err := core.Options{
		Budget:    ps.Budget,
		Strategy:  core.Multistage,
		Policy:    policyFor(ps.Policy),
		Partition: partition.Options{Seed: 1},
	}.Normalize()
	if err != nil {
		return tr, err
	}

	t = time.Now()
	pres, err := partition.Multistage(ctx, p, cur, opts.Partition)
	if err != nil {
		return tr, err
	}
	tr.Partition = time.Since(t)
	tr.Subproblems = len(pres.Subproblems)
	for _, sp := range pres.Subproblems {
		tr.MaxSubContainers = max(tr.MaxSubContainers, sp.TotalContainers())
	}
	tr.LostShare = ratio(pres.LostAffinity, p.Affinity.TotalWeight())

	t = time.Now()
	selected := make([]pool.Algorithm, len(pres.Subproblems))
	for i, sp := range pres.Subproblems {
		selected[i] = opts.Policy.Decide(sp).Algorithm
	}
	tr.Decide = time.Since(t)
	for _, a := range selected {
		if a == pool.MIP {
			tr.MIPPicks++
		}
	}

	remaining := opts.Budget - time.Since(start)
	if remaining < 25*time.Millisecond { // core's minSolveBudget
		remaining = 25 * time.Millisecond
	}
	t = time.Now()
	results := pool.SolveAll(ctx, pres.Subproblems, func(i int) pool.Algorithm { return selected[i] }, remaining, opts.Parallelism)
	tr.Solve = time.Since(t)
	tr.Crit = -1
	for i, r := range results {
		tr.Stats.Merge(r.Stats)
		tr.SubWall += r.Stats.Wall
		if r.Stats.Nodes > 0 {
			tr.NodeWall += r.Stats.Wall
		}
		if r.Stats.Stop == solve.Deadline {
			tr.DeadlineStops++
		}
		if selected[i] == pool.MIP && r.OutOfTime && len(r.Placements) > 0 {
			tr.MIPFloors++
		}
		if tr.Crit < 0 || r.Stats.Wall > tr.CritWall {
			tr.Crit, tr.CritWall, tr.CritAlg = i, r.Stats.Wall, r.Algorithm.String()
			tr.CritCont, tr.CritPricing = pres.Subproblems[i].TotalContainers(), r.Stats.PricingTime
		}
	}

	t = time.Now()
	next := sched.Merge(p, cur, pres, results)
	core.ReconcileSLA(p, cur, next)
	if core.EvictForSLA(p, next) {
		next = sched.Complete(p, next)
		core.ReconcileSLA(p, cur, next)
	}
	tr.Merge = time.Since(t)

	t = time.Now()
	final, err := traceMigrate(ctx, p, cur, next, opts.MinAlive, &tr)
	if err != nil {
		return tr, err
	}
	tr.Migrate = time.Since(t)
	tr.Total = time.Since(start) + tr.Decode
	tr.Gain = final.GainedAffinity(p) / p.Affinity.TotalWeight()
	return tr, nil
}

// traceMigrate plans the migration and resolves relocations and stalls
// to the reachable assignment, as core.Optimize does.
func traceMigrate(ctx context.Context, p *cluster.Problem, cur, next *cluster.Assignment, minAlive float64, tr *passTrace) (*cluster.Assignment, error) {
	if ctx.Err() != nil {
		return next, nil
	}
	plan, err := migrate.Compute(ctx, p, cur, next, migrate.Options{MinAlive: minAlive})
	switch {
	case err == nil:
		tr.Moves, tr.Steps, tr.Relocations = plan.Moves, len(plan.Steps), plan.Relocations
		if plan.Relocations == 0 {
			return next, nil
		}
		return migrate.Simulate(p, cur, plan, minAlive)
	case errors.Is(err, migrate.ErrStalled):
		reached, err := migrate.Simulate(p, cur, plan, minAlive)
		if err != nil {
			return nil, err
		}
		completed := sched.Complete(p, reached)
		tr.Moves, tr.Steps, tr.Relocations = plan.Moves, len(plan.Steps)+1, plan.Relocations
		return completed, nil
	}
	return nil, fmt.Errorf("migration planning: %w", err)
}

// tracePasses replays every checked job of the untraced run and fills
// the per-layer metrics (means per pass). exact demands the replay
// reproduce each job's gain and moves; it holds on converge, where no
// solve is cut by the clock.
func tracePasses(o *outcome, inputs []clusterInput, checks []passCheck, exact bool) {
	var ok []passCheck
	for _, pc := range checks {
		if pc.OK {
			ok = append(ok, pc)
		}
	}
	var trs []passTrace
	var traced, untraced time.Duration
	var mismatches []string
	for _, pc := range ok {
		tr, err := tracePass(inputs[pc.Cluster], pc.passSpec)
		if err != nil {
			o.op(fmt.Sprintf("traced replay of %s: %v", inputs[pc.Cluster].Name, err))
			return
		}
		if exact && (!approxEqual(tr.Gain, pc.Gain) || tr.Moves != pc.Moves) {
			mismatches = append(mismatches, fmt.Sprintf("traced replay of %s: gain %.6f moves %d, untraced gain %.6f moves %d",
				inputs[pc.Cluster].Name, tr.Gain, tr.Moves, pc.Gain, pc.Moves))
		}
		trs = append(trs, tr)
		traced += tr.Total
		untraced += pc.Latency
	}
	if len(trs) == 0 {
		return
	}
	// The equivalence check is one operation of the traced run.
	o.op(mismatches...)
	if len(mismatches) > 0 {
		o.printf("traced replay differs from the untraced run on %d of %d passes: no layer numbers reported", len(mismatches), len(trs))
		return
	}
	if exact {
		o.printf("traced replay reproduces gain and moves of all %d passes", len(trs))
	} else {
		o.printf("traced replay of %d passes (deadline-cut solves: outputs are not expected to repeat exactly)", len(trs))
	}

	n := float64(len(trs))
	avg := func(f func(tr passTrace) float64) float64 {
		t := 0.0
		for _, tr := range trs {
			t += f(tr)
		}
		return t / n
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	L := o.layer
	L["snapshot.decode_s"] = avg(func(t passTrace) float64 { return sec(t.Decode) })
	L["partition.wall_s"] = avg(func(t passTrace) float64 { return sec(t.Partition) })
	L["partition.subproblems"] = avg(func(t passTrace) float64 { return float64(t.Subproblems) })
	L["partition.max_sub_containers"] = avg(func(t passTrace) float64 { return float64(t.MaxSubContainers) })
	L["partition.lost_affinity"] = avg(func(t passTrace) float64 { return t.LostShare })
	L["selector.decide_s"] = avg(func(t passTrace) float64 { return sec(t.Decide) })
	L["selector.mip_share"] = avg(func(t passTrace) float64 { return ratio(float64(t.MIPPicks), float64(t.Subproblems)) })
	L["pool.solve_s"] = avg(func(t passTrace) float64 { return sec(t.Solve) })
	L["pool.critical_s"] = avg(func(t passTrace) float64 { return sec(t.CritWall) })
	L["pool.critical_share"] = avg(func(t passTrace) float64 { return ratio(sec(t.CritWall), sec(t.Solve)) })
	workers := float64(runtime.GOMAXPROCS(0))
	L["pool.busy_ratio"] = avg(func(t passTrace) float64 { return ratio(sec(t.SubWall), sec(t.Solve)*workers) })
	L["pool.deadline_stops"] = avg(func(t passTrace) float64 { return float64(t.DeadlineStops) })
	L["pool.mip_floors"] = avg(func(t passTrace) float64 { return float64(t.MIPFloors) })
	L["cg.pricing_rounds"] = avg(func(t passTrace) float64 { return float64(t.Stats.PricingRounds) })
	L["cg.columns"] = avg(func(t passTrace) float64 { return float64(t.Stats.Columns) })
	L["cg.pricing_s"] = avg(func(t passTrace) float64 { return sec(t.Stats.PricingTime) })
	L["cg.master_s"] = avg(func(t passTrace) float64 { return sec(t.Stats.MasterTime) })
	L["cg.rounding_s"] = avg(func(t passTrace) float64 { return sec(t.Stats.RoundingTime) })
	L["cg.critical_pricing_s"] = avg(func(t passTrace) float64 { return sec(t.CritPricing) })
	var tot solve.Stats
	for _, tr := range trs {
		tot.Merge(tr.Stats)
	}
	L["cg.pricing_s_per_round"] = ratio(tot.PricingTime.Seconds(), float64(tot.PricingRounds))
	solverCounters(L, n, tot, n*avg(func(t passTrace) float64 { return sec(t.SubWall) }),
		n*avg(func(t passTrace) float64 { return sec(t.NodeWall) }))
	L["merge.wall_s"] = avg(func(t passTrace) float64 { return sec(t.Merge) })
	L["migrate.wall_s"] = avg(func(t passTrace) float64 { return sec(t.Migrate) })
	L["migrate.moves"] = avg(func(t passTrace) float64 { return float64(t.Moves) })
	L["migrate.steps"] = avg(func(t passTrace) float64 { return float64(t.Steps) })
	L["migrate.relocations"] = avg(func(t passTrace) float64 { return float64(t.Relocations) })
	L["trace.overhead_s"] = (traced - untraced).Seconds() / n

	o.printf("critical path per pass (subproblem with the longest solve, its share of pool.solve_s):")
	for i, tr := range trs {
		if tr.Crit < 0 {
			continue
		}
		o.printf("  pass %d %s: subproblem %d (%s, %d containers) %.3fs of %.3fs solve = %.0f%%, CG pricing %.3fs",
			i, inputs[ok[i].Cluster].Name, tr.Crit, tr.CritAlg, tr.CritCont,
			tr.CritWall.Seconds(), tr.Solve.Seconds(), 100*ratio(tr.CritWall.Seconds(), tr.Solve.Seconds()), tr.CritPricing.Seconds())
	}
}

// solverCounters fills the mip and lp metrics from summed solver
// effort over ops operations. wall is the summed solve wall and
// nodeWall that of solves that branched.
func solverCounters(L map[string]float64, ops float64, st solve.Stats, wall, nodeWall float64) {
	L["mip.nodes"] = ratio(float64(st.Nodes), ops)
	L["mip.nodes_per_s"] = ratio(float64(st.Nodes), nodeWall)
	L["mip.incumbents"] = ratio(float64(st.Incumbents), ops)
	L["lp.pivots"] = ratio(float64(st.SimplexIters), ops)
	L["lp.warm_share"] = ratio(float64(st.WarmPivots), float64(st.SimplexIters))
	L["lp.pivots_per_s"] = ratio(float64(st.SimplexIters), wall)
	L["lp.pivots_per_node"] = ratio(float64(st.SimplexIters), float64(st.Nodes))
}
