// Command perfbench is the RASA benchmark. It drives the optimization
// service (internal/server) over HTTP from one closed-loop client, one
// request in flight, and reports end-to-end metrics; with -trace 1 it
// then replays the same inputs against the layers directly, timing
// each call, and reports per-layer metrics.
//
//	perfbench --workload converge --seed 1 --seconds 10 --trace 0
//
// Workloads: converge, deadline, churn, churn-fed (see README.md). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 when every output check passed, 1 when one failed
// and 2 when the run could not be made at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(seed int64, seconds float64, traced bool) (*outcome, error){
	"converge": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runPassWorkload(convergeWorkload, seed, seconds, traced)
	},
	"deadline": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runPassWorkload(deadlineWorkload, seed, seconds, traced)
	},
	"churn": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runSessionWorkload(churnWorkload, seed, seconds, traced)
	},
	"churn-fed": func(seed int64, seconds float64, traced bool) (*outcome, error) {
		return runSessionWorkload(churnFedWorkload, seed, seconds, traced)
	},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: converge, deadline, churn or churn-fed")
	seed := fs.Int64("seed", 1, "workload seed: draws the job stream and the churn script")
	seconds := fs.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload converge|deadline|churn|churn-fed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o, err := runFn(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	res := report(stdout, *name, *seed, o, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable report and returns the result line.
func report(w io.Writer, name string, seed int64, o *outcome, traced bool) resultJSON {
	fmt.Fprintf(w, "workload %s seed %d\n", name, seed)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "metric %-16s %14.6f %-5s (n=%d, %s is better)\n", d.Name, o.e2e[d.Name], d.Unit, o.samples[d.Name], d.Better)
	}
	fmt.Fprintf(w, "error_rate %.6f (%d failed of %d operations)\n", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	if traced {
		for _, l := range o.layerReport() {
			fmt.Fprintln(w, l)
		}
	}
	for i, e := range o.errs {
		if i == 20 {
			fmt.Fprintf(w, "... %d more errors\n", len(o.errs)-i)
			break
		}
		fmt.Fprintf(w, "error: %s\n", e)
	}
	res := resultJSON{
		Correct:   o.failed == 0 && len(o.errs) == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	defs := endToEnd
	values := o.e2e
	if traced {
		defs, values = perLayer, o.layer
	}
	if res.Correct {
		for _, d := range defs {
			res.Metrics[d.Name] = metricJSON{Value: values[d.Name], Unit: d.Unit}
		}
	}
	return res
}
