package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// The cluster sets are fixed: every seed sees the same clusters, and
// the workload seed draws the job stream (the order clusters are
// submitted in) and the churn event script. Drawing the clusters
// themselves from the seed, or relabeling them per seed, was tried and
// rejected: one M1-shaped pass ranges from 0.1 s to 17 s across
// generated clusters and relabelings, so no run length fits in the
// time the benchmark has, and the spread across seeds would exceed
// any useful regression bound.
var (
	// convergeClusters are M1-shaped (590 services, 2564 containers,
	// 98 machines) generated with these preset seeds. Two of them
	// (102, 104) have a CG-pricing straggler subproblem taking most of
	// a ~1.3 s pass.
	convergeClusters = []int64{101, 102, 103, 104, 105, 106, 107, 108}
	// deadlineClusters are M2-shaped (1018 services, 15283 containers,
	// 528 machines).
	deadlineClusters = []int64{102, 103}
	// sessionCluster is the M1-shaped live cluster of the churn
	// workloads.
	sessionCluster int64 = 101
)

// clusterInput is one generated cluster and its encoded snapshot, the
// only form in which the server ever sees it.
type clusterInput struct {
	Name    string
	Problem *cluster.Problem
	Current *cluster.Assignment
	// Snapshot is the bare snapshot JSON (with the current deployment).
	Snapshot []byte
}

func genCluster(ps workload.Preset, seed int64) (clusterInput, error) {
	ps.Seed = seed
	c, err := workload.Generate(ps)
	if err != nil {
		return clusterInput{}, fmt.Errorf("generate %s/%d: %w", ps.Name, seed, err)
	}
	raw, err := json.Marshal(snapshot.FromCluster(c.Problem, c.Original))
	if err != nil {
		return clusterInput{}, fmt.Errorf("encode %s/%d: %w", ps.Name, seed, err)
	}
	return clusterInput{
		Name:     fmt.Sprintf("%s/%d", ps.Name, seed),
		Problem:  c.Problem,
		Current:  c.Original,
		Snapshot: raw,
	}, nil
}

func genClusters(ps workload.Preset, seeds []int64) ([]clusterInput, error) {
	out := make([]clusterInput, 0, len(seeds))
	for _, s := range seeds {
		in, err := genCluster(ps, s)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// jobBody wraps a snapshot into a POST /v1/jobs body with the given
// budget and policy kind and the default (multistage) partitioner.
func jobBody(snap []byte, budget, policy string) []byte {
	opts, _ := json.Marshal(map[string]any{
		"budget":    budget,
		"partition": "multistage",
		"policy":    map[string]string{"kind": policy},
	})
	body := append([]byte(`{"snapshot":`), snap...)
	body = append(body, `,"options":`...)
	body = append(body, opts...)
	return append(body, '}')
}

// cycleOrder is the seeded order in which one cycle visits n clusters.
func cycleOrder(seed int64, cycle, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(cycle))).Perm(n)
}

// churnScript draws the churn workload's event batches. Each batch has
// eventsPerRound events: bouncesPerRound bounces, each a service scaled
// to half its replica target and back, and for each bounced service a
// reweight of one of its affinity edges to 0.5–1.5x the edge's
// generated weight. The script runs in cycles: a cycle bounces every
// affinity service with at least two replicas exactly once, in a
// seeded order. A run measures whole cycles, so every run re-plans the
// same services and a seed changes only their order, pairing, edges and
// weights; a run's cost then depends little on which services a seed
// happened to draw (a delta re-solve ranges from 5 ms to 1 s depending
// on the subproblem it dirties). Bounces always restore the generated
// target and reweights are relative to the generated weight, so every
// event is valid whatever ran before it.
type churnScript struct {
	rng      *rand.Rand
	replicas []int
	// eligible are the services bounced; incident[i] lists the edges
	// of eligible[i].
	eligible []int
	incident [][]graph.Edge
	order    []int // the rest of the current cycle
}

const (
	eventsPerRound  = 6
	bouncesPerRound = 2 // a bounce is two events, plus one reweight
)

func newChurnScript(p *cluster.Problem, seed int64) *churnScript {
	cs := &churnScript{rng: rand.New(rand.NewSource(seed))}
	edges := make([][]graph.Edge, p.N())
	for _, e := range p.Affinity.Edges() {
		edges[e.U] = append(edges[e.U], e)
		edges[e.V] = append(edges[e.V], e)
	}
	for s, svc := range p.Services {
		cs.replicas = append(cs.replicas, svc.Replicas)
		if svc.Replicas >= 2 && len(edges[s]) > 0 {
			cs.eligible = append(cs.eligible, s)
			cs.incident = append(cs.incident, edges[s])
		}
	}
	return cs
}

// roundsPerCycle is the number of rounds in one cycle of the script.
func (cs *churnScript) roundsPerCycle() int {
	return (len(cs.eligible) + bouncesPerRound - 1) / bouncesPerRound
}

// next returns the next round's batch. The last round of a cycle tops
// up from the next cycle's order, so every batch has eventsPerRound
// events.
func (cs *churnScript) next() []lifetime.EventJSON {
	out := make([]lifetime.EventJSON, 0, eventsPerRound)
	for i := 0; i < bouncesPerRound; i++ {
		if len(cs.order) == 0 {
			cs.order = cs.rng.Perm(len(cs.eligible))
		}
		k := cs.order[0]
		cs.order = cs.order[1:]
		s, d := cs.eligible[k], cs.replicas[cs.eligible[k]]
		e := cs.incident[k][cs.rng.Intn(len(cs.incident[k]))]
		out = append(out,
			lifetime.ToJSON(lifetime.ScaleService{Service: s, Replicas: d / 2}),
			lifetime.ToJSON(lifetime.ScaleService{Service: s, Replicas: d}),
			lifetime.ToJSON(lifetime.UpdateAffinity{A: e.U, B: e.V, Weight: e.Weight * (0.5 + cs.rng.Float64())}))
	}
	return out
}
