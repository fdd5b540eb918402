package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/cloudsched/rasa/internal/workload"
)

func TestSummarizeMedianAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		median float64
		tailQ  int
		tail   float64
	}{
		{n: 1, median: 1},
		{n: 4, median: 2.5},
		{n: 19, median: 10},                         // p75 would leave 4 beyond it
		{n: 40, median: 20.5, tailQ: 75, tail: 30},  // exactly 10 beyond p75
		{n: 99, median: 50, tailQ: 75, tail: 75},    // p90 would leave 9
		{n: 100, median: 50.5, tailQ: 90, tail: 90}, // exactly 10 beyond p90
		{n: 200, median: 100.5, tailQ: 95, tail: 190},
		{n: 1000, median: 500.5, tailQ: 99, tail: 990},
	}
	for _, c := range cases {
		d := summarize(seq(c.n))
		if d.N != c.n || d.Median != c.median || d.TailQ != c.tailQ || d.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want median %v p%d %v", c.n, d, c.median, c.tailQ, c.tail)
		}
		if d.TailQ != 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > d.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%d has %d samples beyond it", c.n, d.TailQ, beyond)
			}
		}
	}
	if d := summarize(nil); d.N != 0 || d.TailQ != 0 {
		t.Errorf("empty sample: %+v", d)
	}
	if s := summarize(seq(5)).String(); !strings.Contains(s, "n=5") {
		t.Errorf("String() omits the sample count: %q", s)
	}
}

// jobStream is the byte stream of the first cycles of a pass workload's
// job stream for a seed.
func jobStream(t *testing.T, w passWorkload, seed int64, cycles int) []byte {
	t.Helper()
	inputs, err := genClusters(w.preset, w.clusters)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for c := 0; c < cycles; c++ {
		for _, ps := range w.cycle(seed, c, len(inputs)) {
			out = append(out, jobBody(inputs[ps.Cluster].Snapshot, ps.Budget.String(), ps.Policy)...)
			out = append(out, '\n')
		}
	}
	return out
}

func churnStream(t *testing.T, seed int64, rounds int) []byte {
	t.Helper()
	in, err := genCluster(workload.M1, sessionCluster)
	if err != nil {
		t.Fatal(err)
	}
	cs := newChurnScript(in.Problem, seed)
	var out []byte
	for r := 0; r < rounds; r++ {
		b, err := json.Marshal(cs.next())
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

func TestInputsAreSeeded(t *testing.T) {
	small := convergeWorkload
	small.clusters = convergeClusters[:3]
	a, b, c := jobStream(t, small, 7, 3), jobStream(t, small, 7, 3), jobStream(t, small, 8, 3)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different job streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same job stream")
	}
	x, y, z := churnStream(t, 7, 50), churnStream(t, 7, 50), churnStream(t, 8, 50)
	if !bytes.Equal(x, y) {
		t.Error("same seed gave different churn scripts")
	}
	if bytes.Equal(x, z) {
		t.Error("different seeds gave the same churn script")
	}
	if n := bytes.Count(x, []byte(`"type"`)); n != 50*eventsPerRound {
		t.Errorf("churn script has %d events, want %d", n, 50*eventsPerRound)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this command
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, on a
// reduced cluster set, and requires every output check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	converge := convergeWorkload
	converge.clusters = []int64{101, 105}
	deadline := deadlineWorkload
	deadline.clusters = deadlineClusters[:1]
	for _, w := range []passWorkload{converge, deadline} {
		o, err := runPassWorkload(w, 3, 0.1, true)
		checkSmoke(t, w.name, o, err)
	}
	for _, w := range []sessionWorkload{churnWorkload, churnFedWorkload} {
		o, err := runSessionWorkload(w, 3, 0.5, true)
		checkSmoke(t, w.name, o, err)
	}
}

func checkSmoke(t *testing.T, name string, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if o.failed != 0 || len(o.errs) != 0 || o.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", name, o.failed, o.attempted, o.errs)
	}
	for _, d := range endToEnd {
		if !(o.e2e[d.Name] > 0) {
			t.Errorf("%s: %s = %v", name, d.Name, o.e2e[d.Name])
		}
	}
	if o.layer["trace.overhead_s"] == 0 {
		t.Errorf("%s: traced run reported no layer numbers", name)
	}
}

// TestCommandOutput checks the result line of the command itself.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a churn session")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "churn", "--seed", "2", "--seconds", "0.5", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", res)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
