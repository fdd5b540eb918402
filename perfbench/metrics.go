package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the service sees, reported by an
// untraced run of every workload. latency_ms is the typical latency of
// one operation: on the pass workloads the geometric mean, over the
// fixed set of jobs (cluster and policy), of each job's median pass
// latency; on the session workloads the median round latency (events +
// reoptimize). gain is, on the pass workloads, the mean over the job set
// of each job's median normalized gained affinity, and on the session
// workloads the normalized gain after the last round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"gain", "ratio", "higher"},
}

// perLayer are the traced run's per-layer metrics. A layer a workload
// does not exercise reports 0. Times and counts are per operation
// (pass, round or call) unless the name says otherwise.
var perLayer = []metricDef{
	{"server.overhead_s", "s", "lower"},
	{"server.queue_s", "s", "lower"},
	{"server.response_kb", "KiB", "lower"},
	{"server.events_ms", "ms", "lower"},
	{"server.reoptimize_ms", "ms", "lower"},
	{"server.execute_ms", "ms", "lower"},
	{"server.log_ms", "ms", "lower"},
	{"snapshot.decode_s", "s", "lower"},
	{"partition.wall_s", "s", "lower"},
	{"partition.subproblems", "count", "lower"},
	{"partition.max_sub_containers", "count", "lower"},
	{"partition.lost_affinity", "ratio", "lower"},
	{"selector.decide_s", "s", "lower"},
	{"selector.mip_share", "ratio", "lower"},
	{"pool.solve_s", "s", "lower"},
	{"pool.critical_s", "s", "lower"},
	{"pool.critical_share", "ratio", "lower"},
	{"pool.busy_ratio", "ratio", "higher"},
	{"pool.deadline_stops", "count", "lower"},
	{"pool.mip_floors", "count", "lower"},
	{"cg.pricing_rounds", "count", "lower"},
	{"cg.columns", "count", "lower"},
	{"cg.pricing_s", "s", "lower"},
	{"cg.master_s", "s", "lower"},
	{"cg.rounding_s", "s", "lower"},
	{"cg.critical_pricing_s", "s", "lower"},
	{"cg.pricing_s_per_round", "s", "lower"},
	{"mip.nodes", "count", "lower"},
	{"mip.nodes_per_s", "1/s", "higher"},
	{"mip.incumbents", "count", "higher"},
	{"lp.pivots", "count", "lower"},
	{"lp.warm_share", "ratio", "higher"},
	{"lp.pivots_per_s", "1/s", "higher"},
	{"lp.pivots_per_node", "count", "lower"},
	{"merge.wall_s", "s", "lower"},
	{"migrate.wall_s", "s", "lower"},
	{"migrate.moves", "count", "lower"},
	{"migrate.steps", "count", "lower"},
	{"migrate.relocations", "count", "lower"},
	{"incr.apply_s", "s", "lower"},
	{"incr.delta_s", "s", "lower"},
	{"incr.full_s", "s", "lower"},
	{"incr.noops", "count", "higher"},
	{"incr.deltas", "count", "higher"},
	{"incr.fulls", "count", "lower"},
	{"incr.escalations", "count", "lower"},
	{"incr.dirty_ratio", "ratio", "lower"},
	{"fed.reopt_s", "s", "lower"},
	{"fed.merge_s", "s", "lower"},
	{"fed.floor_rejections", "count", "lower"},
	{"fed.dirty_blocks", "count", "lower"},
	{"lifetime.entries", "count", "lower"},
	{"lifetime.tail_s", "s", "lower"},
	{"lifetime.fingerprint_s", "s", "lower"},
	{"exec.run_s", "s", "lower"},
	{"exec.commands", "count", "lower"},
	{"exec.retries", "count", "lower"},
	{"exec.floor_violations", "count", "lower"},
	{"exec.wasted_moves", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// outcome collects everything one benchmark run reports.
type outcome struct {
	e2e     map[string]float64
	samples map[string]int
	layer   map[string]float64
	// attempted and failed count operations: a failed operation had a
	// transport error, an unexpected status or a failed output check.
	attempted, failed int
	errs              []string
	lines             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int{}, layer: map[string]float64{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.e2e[name] = v
	o.samples[name] = n
}

// op records one attempted operation and its check failures.
func (o *outcome) op(errs ...string) {
	o.attempted++
	if len(errs) > 0 {
		o.failed++
		o.errs = append(o.errs, errs...)
	}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// layerReport renders the per-layer metrics that are non-zero, grouped
// by layer, for the human-readable report.
func (o *outcome) layerReport() []string {
	var out []string
	for _, d := range perLayer {
		v, ok := o.layer[d.Name]
		if !ok || v == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("layer %-30s %14.6g %s", d.Name, v, d.Unit))
	}
	var idle []string
	for _, d := range perLayer {
		if o.layer[d.Name] == 0 {
			idle = append(idle, d.Name)
		}
	}
	if len(idle) > 0 {
		out = append(out, "layer metrics at 0 (layer idle on this workload): "+strings.Join(idle, " "))
	}
	return out
}
