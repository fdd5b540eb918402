package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/server"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// passSpec is one optimization job of a pass workload.
type passSpec struct {
	Cluster int
	Policy  string // heuristic or mip
	Budget  time.Duration
}

// passWorkload describes converge and deadline: a fixed cluster set
// and the seeded job stream cycling over it.
type passWorkload struct {
	name     string
	preset   workload.Preset
	clusters []int64
	// cycle returns one cycle of the job stream.
	cycle func(seed int64, cycle, n int) []passSpec
	// converged rejects passes in which any subproblem stopped on its
	// deadline: such a pass measured the budget, not the solver.
	converged bool
}

var convergeWorkload = passWorkload{
	name:     "converge",
	preset:   workload.M1,
	clusters: convergeClusters,
	cycle: func(seed int64, c, n int) []passSpec {
		var out []passSpec
		for _, i := range cycleOrder(seed, c, n) {
			out = append(out, passSpec{Cluster: i, Policy: "heuristic", Budget: 60 * time.Second})
		}
		return out
	},
	converged: true,
}

var deadlineWorkload = passWorkload{
	name:     "deadline",
	preset:   workload.M2,
	clusters: deadlineClusters,
	cycle: func(seed int64, c, n int) []passSpec {
		var out []passSpec
		for _, i := range cycleOrder(seed, c, n) {
			out = append(out,
				passSpec{Cluster: i, Policy: "heuristic", Budget: time.Second},
				passSpec{Cluster: i, Policy: "mip", Budget: time.Second})
		}
		return out
	},
}

// passSetup is what one set-up of a pass workload produces.
type passSetup struct {
	inputs []clusterInput
	// bodies[i][policy+budget] is the encoded request for cluster i.
	bodies []map[string][]byte
	h      *harness
}

func (w passWorkload) setup() (*passSetup, error) {
	inputs, err := genClusters(w.preset, w.clusters)
	if err != nil {
		return nil, err
	}
	st := &passSetup{inputs: inputs, bodies: make([]map[string][]byte, len(inputs))}
	for i := range inputs {
		st.bodies[i] = map[string][]byte{}
	}
	for _, ps := range w.jobs() {
		st.bodies[ps.Cluster][bodyKey(ps)] = jobBody(inputs[ps.Cluster].Snapshot, ps.Budget.String(), ps.Policy)
	}
	st.h, err = startServer(server.Config{})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// jobs is the job set of one cycle, ordered by cluster.
func (w passWorkload) jobs() []passSpec {
	jobs := w.cycle(0, 0, len(w.clusters))
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Cluster < jobs[j].Cluster })
	return jobs
}

func bodyKey(ps passSpec) string { return ps.Policy + "/" + ps.Budget.String() }

// passRun is one measured job.
type passRun struct {
	passSpec
	Latency time.Duration
	Body    []byte
	Err     error
}

// measure drives the job stream with one client and one job in flight,
// in whole cycles, until seconds have passed.
func (w passWorkload) measure(st *passSetup, seed int64, seconds float64) ([]passRun, time.Duration) {
	var runs []passRun
	start := time.Now()
	for c := 0; c == 0 || time.Since(start).Seconds() < seconds; c++ {
		for _, ps := range w.cycle(seed, c, len(st.inputs)) {
			runs = append(runs, st.runPass(ps))
		}
	}
	return runs, time.Since(start)
}

// runPass submits one job and long-polls it to completion. The latency
// runs from the submission to the last byte of the completed result.
func (st *passSetup) runPass(ps passSpec) passRun {
	r := passRun{passSpec: ps}
	t0 := time.Now()
	out, err := st.h.expect("POST", "/v1/jobs", st.bodies[ps.Cluster][bodyKey(ps)], 202)
	if err != nil {
		r.Err = err
		return r
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &sub); err != nil || sub.ID == "" {
		r.Err = fmt.Errorf("submit response without id: %.200s", out)
		return r
	}
	r.Body, r.Err = st.h.expect("GET", "/v1/jobs/"+sub.ID+"?wait=140s", nil, 200)
	r.Latency = time.Since(t0)
	return r
}

// Wire forms of GET /v1/jobs/{id}, decoded by the benchmark itself so
// it checks what a client sees.
type jobView struct {
	Status    string     `json:"status"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Error     string     `json:"error"`
	Result    *jobResult `json:"result"`
}

type jobResult struct {
	GainedAffinity float64                  `json:"gainedAffinity"`
	TotalAffinity  float64                  `json:"totalAffinity"`
	Elapsed        string                   `json:"elapsed"`
	Stats          solve.Stats              `json:"stats"`
	SubResults     []subResult              `json:"subResults"`
	Assignment     []snapshot.PlacementJSON `json:"assignment"`
	Plan           *planJSON                `json:"plan"`
}

type subResult struct {
	Algorithm string      `json:"algorithm"`
	OutOfTime bool        `json:"outOfTime"`
	Stats     solve.Stats `json:"stats"`
}

type planJSON struct {
	Moves       int `json:"moves"`
	Relocations int `json:"relocations"`
	Steps       [][]struct {
		Op      string `json:"op"`
		Service int    `json:"service"`
		Machine int    `json:"machine"`
	} `json:"steps"`
}

// passCheck is a checked, decoded job.
type passCheck struct {
	passRun
	View    jobView
	Gain    float64
	Moves   int
	Elapsed time.Duration
	// OK reports that every output check passed.
	OK bool
}

// checkPass decodes one job and runs every output check on it.
func checkPass(in clusterInput, r passRun, converged bool) (passCheck, []string) {
	pc := passCheck{passRun: r}
	if r.Err != nil {
		return pc, []string{fmt.Sprintf("%s %s: %v", in.Name, r.Policy, r.Err)}
	}
	fail := func(format string, args ...any) []string {
		return []string{fmt.Sprintf("%s %s: ", in.Name, r.Policy) + fmt.Sprintf(format, args...)}
	}
	if err := json.Unmarshal(r.Body, &pc.View); err != nil {
		return pc, fail("decode result: %v", err)
	}
	v := pc.View
	if v.Status != string(server.StatusCompleted) || v.Result == nil {
		return pc, fail("job ended %q: %s", v.Status, v.Error)
	}
	res := v.Result
	p := in.Problem
	var err error
	if pc.Elapsed, err = time.ParseDuration(res.Elapsed); err != nil {
		return pc, fail("elapsed %q: %v", res.Elapsed, err)
	}
	a := cluster.NewAssignment(p.N(), p.M())
	for _, pl := range res.Assignment {
		if pl.Service < 0 || pl.Service >= p.N() || pl.Machine < 0 || pl.Machine >= p.M() || pl.Count <= 0 {
			return pc, fail("placement %+v out of range", pl)
		}
		a.Add(pl.Service, pl.Machine, pl.Count)
	}
	if viol := a.Check(p, true); len(viol) > 0 {
		return pc, fail("assignment violates %d constraints, first: %v", len(viol), viol[0])
	}
	if res.Plan == nil {
		return pc, fail("no migration plan")
	}
	plan, err := toPlan(res.Plan)
	if err != nil {
		return pc, fail("%v", err)
	}
	reached, err := migrate.Simulate(p, in.Current, plan, defaultMinAlive)
	if err != nil {
		return pc, fail("plan replay: %v", err)
	}
	if !migrate.Equal(reached, a) {
		return pc, fail("plan replay ends %d moves away from the returned assignment", cluster.MoveCount(reached, a))
	}
	total := p.Affinity.TotalWeight()
	g := a.GainedAffinity(p)
	if !approxEqual(g, res.GainedAffinity) || !approxEqual(total, res.TotalAffinity) {
		return pc, fail("reported gain %v/%v, recomputed %v/%v", res.GainedAffinity, res.TotalAffinity, g, total)
	}
	pc.Gain = g / total
	pc.Moves = plan.Moves
	if converged {
		for i, sr := range res.SubResults {
			if sr.Stats.Stop == solve.Deadline {
				return pc, fail("subproblem %d stopped on its deadline: the pass measured the budget, not the solver", i)
			}
		}
	}
	return pc, nil
}

// defaultMinAlive is the migration SLA floor the service applies when a
// request leaves it unset.
const defaultMinAlive = 0.75

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

func toPlan(pj *planJSON) (*migrate.Plan, error) {
	plan := &migrate.Plan{Moves: pj.Moves, Relocations: pj.Relocations}
	for _, step := range pj.Steps {
		var s migrate.Step
		for _, c := range step {
			var op migrate.Op
			switch c.Op {
			case migrate.Create.String():
				op = migrate.Create
			case migrate.Delete.String():
				op = migrate.Delete
			default:
				return nil, fmt.Errorf("plan command with unknown op %q", c.Op)
			}
			s = append(s, migrate.Command{Op: op, Service: c.Service, Machine: c.Machine})
		}
		plan.Steps = append(plan.Steps, s)
	}
	return plan, nil
}

// runPassWorkload is one complete run of converge or deadline.
func runPassWorkload(w passWorkload, seed int64, seconds float64, traced bool) (*outcome, error) {
	o := newOutcome()
	st, setups, err := repeatSetup(w.setup, func(st *passSetup) error { return st.h.close() })
	if err != nil {
		return nil, err
	}
	o.set("setup_s", medianOf(setups), len(setups))

	runs, wall := w.measure(st, seed, seconds)
	if err := st.h.close(); err != nil {
		return nil, err
	}

	checks := make([]passCheck, len(runs))
	var lat, gains, overhead, queue, kb []float64
	overrun := map[string][]float64{}
	byPolicy := map[string][]float64{}
	groups := map[passSpec][]float64{}
	gainGroups := map[passSpec][]float64{}
	gainByPolicy := map[string][]float64{}
	subStops := map[solve.StopCause]int{}
	cutButOptimal := 0
	for i, r := range runs {
		pc, errs := checkPass(st.inputs[r.Cluster], r, w.converged)
		o.op(errs...)
		pc.OK = len(errs) == 0
		checks[i] = pc
		if !pc.OK {
			continue
		}
		ms := r.Latency.Seconds() * 1000
		lat = append(lat, ms)
		byPolicy[r.Policy] = append(byPolicy[r.Policy], ms)
		groups[r.passSpec] = append(groups[r.passSpec], ms)
		gains = append(gains, pc.Gain)
		gainGroups[r.passSpec] = append(gainGroups[r.passSpec], pc.Gain)
		gainByPolicy[r.Policy] = append(gainByPolicy[r.Policy], pc.Gain)
		overrun[r.Policy] = append(overrun[r.Policy], math.Max(0, (r.Latency-r.Budget).Seconds()))
		overhead = append(overhead, (r.Latency - pc.Elapsed).Seconds())
		if pc.View.Started != nil {
			queue = append(queue, pc.View.Started.Sub(pc.View.Submitted).Seconds())
		}
		kb = append(kb, float64(len(r.Body))/1024)
		cut := false
		for _, sr := range pc.View.Result.SubResults {
			subStops[sr.Stats.Stop]++
			cut = cut || sr.Stats.Stop == solve.Deadline
		}
		if cut && pc.View.Result.Stats.Stop == solve.Optimal {
			cutButOptimal++
		}
	}
	o.set("latency_ms", geomeanOfMedians(groups), len(lat))
	o.set("gain", meanOfMedians(gainGroups), len(gains))

	o.printf("pass latency ms: %s", summarize(lat))
	for _, ps := range w.jobs() {
		if xs := groups[ps]; len(xs) > 0 {
			o.printf("  job %s %-9s median %.1f ms of %s", st.inputs[ps.Cluster].Name, ps.Policy, medianOf(xs), fmtSamples(xs))
		}
	}
	o.printf("passes_per_s: %.4f (%d passes in %.2fs)", float64(len(lat))/wall.Seconds(), len(lat), wall.Seconds())
	var allOverrun []float64
	for _, pol := range []string{"heuristic", "mip"} {
		if len(byPolicy[pol]) == 0 {
			continue
		}
		o.printf("  %-9s latency ms %s; gain p50 %.4f; overrun_s mean %.4f (n=%d)",
			pol, summarize(byPolicy[pol]), medianOf(gainByPolicy[pol]), mean(overrun[pol]), len(overrun[pol]))
		allOverrun = append(allOverrun, overrun[pol]...)
	}
	o.printf("overrun_s (mean of max(0, latency - budget)): %.4f (n=%d)", mean(allOverrun), len(allOverrun))
	o.printf("subproblem stop causes (from subResults[].stats.stop): %v", stopCounts(subStops))
	o.printf("passes whose aggregate stats.stop says optimal although a subproblem stopped on its deadline: %d", cutButOptimal)

	o.layer["server.overhead_s"] = medianOf(overhead)
	o.layer["server.queue_s"] = medianOf(queue)
	o.layer["server.response_kb"] = mean(kb)

	if traced {
		tracePasses(o, st.inputs, checks, w.name == convergeWorkload.name)
	}
	return o, nil
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func stopCounts(m map[solve.StopCause]int) string {
	out := ""
	for c := solve.None; c <= solve.NodeLimit; c++ {
		if m[c] > 0 {
			out += fmt.Sprintf(" %s=%d", c, m[c])
		}
	}
	if out == "" {
		return " none"
	}
	return out
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// their median. All but the last set-up are torn down again.
const setupRepeats = 5

func repeatSetup[T any](setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var st T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := teardown(st); err != nil {
				var none T // st is torn down: nothing left for the caller to close
				return none, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, nil
}
