package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/fed"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
)

// session is the live cluster behind the service's /v1/cluster
// endpoints: a single incremental engine, or a shard federation.
type session struct {
	eng *incr.Engine
	fed *fed.Pool
}

// sessionBudget is the service's default budget, which the session
// workloads leave in place.
const sessionBudget = 2 * time.Second

// newSession builds the session from the snapshot the way the service
// installs it.
func newSession(w sessionWorkload, p *cluster.Problem, cur *cluster.Assignment) (*session, error) {
	opts := incr.Options{
		Budget:    sessionBudget,
		Strategy:  core.Multistage,
		Policy:    selector.Heuristic{},
		Partition: partition.Options{Seed: 1},
	}
	if w.shards >= 2 {
		pl, err := fed.New(p, cur, fed.Options{Shards: w.shards, Engine: opts}, nil)
		return &session{fed: pl}, err
	}
	st, err := incr.NewState(p, cur)
	if err != nil {
		return nil, err
	}
	return &session{eng: incr.New(st, opts, nil)}, nil
}

// callCtx is the deadline the service gives one reoptimize.
func callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 2*sessionBudget+5*time.Second)
}

func (s *session) apply(events ...lifetime.Event) (int, error) {
	if s.fed != nil {
		return s.fed.Apply(events...)
	}
	return s.eng.Apply(events...)
}

func (s *session) head() uint64 {
	if s.fed != nil {
		return s.fed.Head()
	}
	return s.eng.State().Log().Head()
}

func (s *session) tail(from uint64) int {
	if s.fed != nil {
		return len(s.fed.Entries(from))
	}
	return len(lifetime.EntriesJSON(s.eng.State().Log().Entries(from)))
}

func (s *session) fingerprint() string {
	if s.fed != nil {
		return s.fed.Stats().Fingerprint
	}
	return s.eng.State().Log().Fingerprint()
}

func (s *session) stats() incr.Stats {
	if s.fed != nil {
		return s.fed.Stats()
	}
	return s.eng.State().Snapshot()
}

func (s *session) execute(ctx context.Context) (*exec.Report, error) {
	if s.fed != nil {
		return s.fed.Execute(ctx, func(_ int, _ []int, start *cluster.Assignment) exec.Fabric {
			return exec.NewInstantFabric(start)
		}, exec.Options{})
	}
	start := s.eng.State().Assignment().Clone()
	return exec.New(s.eng, exec.NewInstantFabric(start), exec.Options{}, nil).Run(ctx)
}

// sessionTrace accumulates the spans and counters of a session replay.
type sessionTrace struct {
	apply, delta, full, fedReopt, fedMerge, execRun, tail, fp []time.Duration
	reopts, noops, deltas, fulls, escalations                 int
	dirtyRatio                                                []float64
	floorRejections, dirtyBlocks                              int
	moves, steps, relocations                                 int
	solver                                                    solve.Stats
	reoptWall, nodeWall                                       time.Duration
	execs, commands, retries, floorViolations, wasted         int
	roundsTotal                                               time.Duration
}

func (t *sessionTrace) plan(p *migrate.Plan) {
	if p != nil {
		t.moves += p.Moves
		t.steps += len(p.Steps)
		t.relocations += p.Relocations
	}
}

// replay runs the untraced run's script against a fresh session.
func (t *sessionTrace) replay(s *session, run sessionRun, head uint64) error {
	for i, rd := range run.rounds {
		events, err := incr.DecodeEvents(rd.Batch)
		if err != nil {
			return err
		}
		t0 := time.Now()
		n, err := s.apply(events...)
		t.apply = append(t.apply, time.Since(t0))
		if err != nil || n != len(events) {
			return fmt.Errorf("round %d: applied %d of %d events: %v", i+1, n, len(events), err)
		}
		if err := t.step(s, rd.Exec); err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
		t.roundsTotal += time.Since(t0)

		t1 := time.Now()
		got := s.tail(head + 1)
		t.tail = append(t.tail, time.Since(t1))
		next := s.head()
		if uint64(got) != next-head {
			return fmt.Errorf("round %d: log tail has %d entries, head moved %d", i+1, got, next-head)
		}
		head = next
		t2 := time.Now()
		s.fingerprint()
		t.fp = append(t.fp, time.Since(t2))
	}
	return nil
}

// step runs a round's reoptimize, or its execution.
func (t *sessionTrace) step(s *session, execRound bool) error {
	ctx, cancel := callCtx()
	defer cancel()
	t0 := time.Now()
	if execRound {
		rep, err := s.execute(ctx)
		if err != nil {
			return err
		}
		t.execRun = append(t.execRun, time.Since(t0))
		if rep.Outcome != exec.OutcomeCompleted || rep.FloorViolations != 0 {
			return fmt.Errorf("execution outcome %q with %d floor violations", rep.Outcome, rep.FloorViolations)
		}
		t.execs++
		t.commands += rep.Commands
		t.retries += rep.Retries
		t.floorViolations += rep.FloorViolations
		t.wasted += rep.WastedMoves
		return nil
	}
	t.reopts++
	if s.fed != nil {
		res, err := s.fed.Reoptimize(ctx)
		if err != nil {
			return err
		}
		t.fedReopt = append(t.fedReopt, time.Since(t0))
		t.fedMerge = append(t.fedMerge, res.MergeElapsed)
		t.noops += res.Noops
		t.deltas += res.Deltas
		t.fulls += res.Fulls
		t.floorRejections += res.FloorRejections
		t.dirtyBlocks += res.Deltas + res.Fulls
		t.plan(res.Plan)
		return nil
	}
	res, err := s.eng.Reoptimize(ctx)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	switch res.Mode {
	case incr.ModeNoop:
		t.noops++
	case incr.ModeDelta:
		t.deltas++
		t.delta = append(t.delta, d)
	case incr.ModeFull:
		t.fulls++
		t.full = append(t.full, d)
	}
	if res.Escalated {
		t.escalations++
	}
	t.dirtyRatio = append(t.dirtyRatio, ratio(float64(res.DirtySubproblems), float64(res.TotalSubproblems)))
	t.solver.Merge(res.Stats)
	t.reoptWall += d
	if res.Stats.Nodes > 0 {
		t.nodeWall += d
	}
	t.plan(res.Plan)
	return nil
}

// traceSession replays the untraced run's script against a session
// built from the same snapshot and fills the per-layer metrics. The
// replay must end in the same state (fingerprint and gain); if it does
// not, no layer numbers are reported.
func traceSession(o *outcome, w sessionWorkload, st *sessionSetup, run sessionRun) {
	t0 := time.Now()
	p, cur, err := snapshot.Load(bytes.NewReader(st.in.Snapshot))
	decode := time.Since(t0)
	if err != nil {
		o.op("traced replay: " + err.Error())
		return
	}
	s, err := newSession(w, p, cur)
	if err != nil {
		o.op("traced replay: " + err.Error())
		return
	}
	ctx, cancel := callCtx()
	if s.fed != nil {
		_, err = s.fed.Reoptimize(ctx)
	} else {
		_, err = s.eng.Reoptimize(ctx)
	}
	cancel()
	if err != nil {
		o.op("traced replay bootstrap: " + err.Error())
		return
	}
	var t sessionTrace
	if err := t.replay(s, run, s.head()); err != nil {
		o.op("traced replay: " + err.Error())
		return
	}
	final := s.stats()
	if final.Fingerprint != run.final.Fingerprint || !approxEqual(final.NormalizedGain, run.final.NormalizedGain) {
		o.op(fmt.Sprintf("traced replay ends at fingerprint %s gain %.6f, untraced run at %s gain %.6f: no layer numbers reported",
			final.Fingerprint, final.NormalizedGain, run.final.Fingerprint, run.final.NormalizedGain))
		return
	}
	o.op()
	o.printf("traced replay of %d rounds reproduces the end state (fingerprint %s)", len(run.rounds), final.Fingerprint)

	L := o.layer
	reopts := float64(t.reopts)
	L["snapshot.decode_s"] = decode.Seconds()
	L["incr.apply_s"] = meanSec(t.apply)
	L["incr.delta_s"] = meanSec(t.delta)
	L["incr.full_s"] = meanSec(t.full)
	L["incr.noops"] = ratio(float64(t.noops), reopts)
	L["incr.deltas"] = ratio(float64(t.deltas), reopts)
	L["incr.fulls"] = ratio(float64(t.fulls), reopts)
	L["incr.escalations"] = ratio(float64(t.escalations), reopts)
	L["incr.dirty_ratio"] = mean(t.dirtyRatio)
	L["fed.reopt_s"] = meanSec(t.fedReopt)
	L["fed.merge_s"] = meanSec(t.fedMerge)
	L["fed.floor_rejections"] = ratio(float64(t.floorRejections), reopts)
	L["fed.dirty_blocks"] = ratio(float64(t.dirtyBlocks), reopts)
	L["migrate.moves"] = ratio(float64(t.moves), reopts)
	L["migrate.steps"] = ratio(float64(t.steps), reopts)
	L["migrate.relocations"] = ratio(float64(t.relocations), reopts)
	L["cg.pricing_rounds"] = ratio(float64(t.solver.PricingRounds), reopts)
	L["cg.columns"] = ratio(float64(t.solver.Columns), reopts)
	L["cg.pricing_s"] = ratio(t.solver.PricingTime.Seconds(), reopts)
	L["cg.master_s"] = ratio(t.solver.MasterTime.Seconds(), reopts)
	L["cg.rounding_s"] = ratio(t.solver.RoundingTime.Seconds(), reopts)
	L["cg.pricing_s_per_round"] = ratio(t.solver.PricingTime.Seconds(), float64(t.solver.PricingRounds))
	solverCounters(L, reopts, t.solver, t.reoptWall.Seconds(), t.nodeWall.Seconds())
	L["lifetime.entries"] = float64(final.LogHead)
	L["lifetime.tail_s"] = meanSec(t.tail)
	L["lifetime.fingerprint_s"] = meanSec(t.fp)
	L["exec.run_s"] = meanSec(t.execRun)
	execs := float64(t.execs)
	L["exec.commands"] = ratio(float64(t.commands), execs)
	L["exec.retries"] = ratio(float64(t.retries), execs)
	L["exec.floor_violations"] = ratio(float64(t.floorViolations), execs)
	L["exec.wasted_moves"] = ratio(float64(t.wasted), execs)
	L["trace.overhead_s"] = (t.roundsTotal - run.untracedRounds).Seconds() / float64(len(run.rounds))
}

func meanSec(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds() / float64(len(ds))
}
