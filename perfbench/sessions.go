package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/server"
	"github.com/cloudsched/rasa/internal/workload"
)

// sessionWorkload describes churn and churn-fed: one live cluster
// session driven by a seeded event script.
type sessionWorkload struct {
	name string
	// shards >= 2 starts the service with a federated session.
	shards int
}

var (
	churnWorkload    = sessionWorkload{name: "churn"}
	churnFedWorkload = sessionWorkload{name: "churn-fed", shards: 2}
)

// execEvery makes every execEvery-th round execute the pending plan
// move by move (POST /v1/cluster/execute) instead of adopting it with
// a reoptimize.
const execEvery = 10

type sessionSetup struct {
	in clusterInput
	h  *harness
	// head is the log head after the bootstrap reoptimize.
	head uint64
}

// setup generates the cluster, starts the service, installs the
// session and runs the bootstrap reoptimize.
func (w sessionWorkload) setup() (*sessionSetup, error) {
	in, err := genCluster(workload.M1, sessionCluster)
	if err != nil {
		return nil, err
	}
	install := append([]byte(`{"snapshot":`), in.Snapshot...)
	install = append(install, `,"options":{"partition":"multistage","policy":{"kind":"heuristic"}}}`...)
	h, err := startServer(server.Config{Shards: w.shards})
	if err != nil {
		return nil, err
	}
	st := &sessionSetup{in: in, h: h}
	if _, err := h.expect("POST", "/v1/cluster", install, 200); err != nil {
		return st, err
	}
	if _, err := h.expect("POST", "/v1/cluster/reoptimize", nil, 200); err != nil {
		return st, err
	}
	stats, err := st.stats()
	st.head = stats.LogHead
	return st, err
}

func (st *sessionSetup) stats() (incr.Stats, error) {
	var s incr.Stats
	out, err := st.h.expect("GET", "/v1/cluster", nil, 200)
	if err == nil {
		err = json.Unmarshal(out, &s)
	}
	return s, err
}

// round is one round of the script as sent.
type round struct {
	Batch []lifetime.EventJSON
	Exec  bool
}

// sessionRun is the untraced run of a session workload.
type sessionRun struct {
	// rounds is the script as sent, warm-up cycle included; measured
	// holds the timed cycles' samples.
	rounds   []round
	measured measuredSamples
	// untracedRounds sums every round's events and reoptimize/execute
	// latency, the span the traced replay times too.
	untracedRounds time.Duration
	final          incr.Stats
	wall           time.Duration
}

// measuredSamples are the timings of the timed rounds. roundMs are
// reoptimize rounds (events + reoptimize); execMs the execute calls of
// execute rounds (submit to finished report).
type measuredSamples struct {
	rounds                                    int
	roundMs, eventsMs, reoptMs, execMs, logMs []float64
	reoptKB, overhead                         []float64
}

type execView struct {
	Status string `json:"status"`
	Error  string `json:"error"`
	Report *struct {
		Outcome         string `json:"outcome"`
		Error           string `json:"error"`
		FloorViolations int    `json:"floorViolations"`
	} `json:"report"`
}

func (w sessionWorkload) measure(o *outcome, st *sessionSetup, seed int64, seconds float64) sessionRun {
	var run sessionRun
	script := newChurnScript(st.in.Problem, seed)
	head := st.head
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	cycle := script.roundsPerCycle()
	var start time.Time
	for r := 0; ; r++ {
		if r == cycle {
			// The first cycle warms the engine's per-subproblem caches
			// (warm-start bases) and is not timed.
			run.measured = measuredSamples{}
			start = time.Now()
		} else if r > cycle && r%cycle == 0 && time.Since(start).Seconds() >= seconds {
			break // whole timed cycles, until seconds have passed
		}
		rd := round{Batch: script.next(), Exec: (r+1)%execEvery == 0}
		run.rounds = append(run.rounds, rd)
		body, _ := json.Marshal(map[string]any{"events": rd.Batch})
		m := &run.measured

		t0 := time.Now()
		o.op(st.postEvents(body, len(rd.Batch))...)
		tEvents := time.Since(t0)
		m.eventsMs = append(m.eventsMs, ms(tEvents))
		t1 := time.Now()
		if rd.Exec {
			o.op(st.execute()...)
			m.execMs = append(m.execMs, ms(time.Since(t1)))
		} else {
			kb, elapsed, errs := st.reoptimize()
			o.op(errs...)
			d := time.Since(t1)
			m.reoptMs = append(m.reoptMs, ms(d))
			m.roundMs = append(m.roundMs, ms(tEvents+d))
			if len(errs) == 0 {
				m.reoptKB = append(m.reoptKB, kb)
				m.overhead = append(m.overhead, (d - elapsed).Seconds())
			}
		}
		run.untracedRounds += time.Since(t0)

		t2 := time.Now()
		next, errs := st.logTail(head)
		o.op(errs...)
		m.logMs = append(m.logMs, ms(time.Since(t2)))
		m.rounds++
		head = next
	}
	run.wall = time.Since(start)
	final, err := st.stats()
	o.op(errStrings(err)...)
	run.final = final
	if err == nil && final.EventsApplied != eventsPerRound*len(run.rounds) {
		o.op(fmt.Sprintf("session applied %d events, %d sent", final.EventsApplied, eventsPerRound*len(run.rounds)))
	}
	return run
}

func errStrings(err error) []string {
	if err == nil {
		return nil
	}
	return []string{err.Error()}
}

func (st *sessionSetup) postEvents(body []byte, sent int) []string {
	out, err := st.h.expect("POST", "/v1/cluster/events", body, 200)
	if err != nil {
		return errStrings(err)
	}
	var resp struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return errStrings(fmt.Errorf("events response: %w", err))
	}
	if resp.Applied != sent {
		return []string{fmt.Sprintf("events: %d of %d applied", resp.Applied, sent)}
	}
	return nil
}

// reoptimize returns the response size in KiB and the server-side
// elapsed time.
func (st *sessionSetup) reoptimize() (float64, time.Duration, []string) {
	out, err := st.h.expect("POST", "/v1/cluster/reoptimize", nil, 200)
	if err != nil {
		return 0, 0, errStrings(err)
	}
	var resp struct {
		NormalizedGain float64 `json:"normalizedGain"`
		Elapsed        string  `json:"elapsed"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return 0, 0, errStrings(fmt.Errorf("reoptimize response: %w", err))
	}
	elapsed, err := time.ParseDuration(resp.Elapsed)
	if err != nil {
		return 0, 0, errStrings(fmt.Errorf("reoptimize elapsed %q: %w", resp.Elapsed, err))
	}
	if resp.NormalizedGain < 0 || resp.NormalizedGain > 1 {
		return 0, 0, []string{fmt.Sprintf("reoptimize normalized gain %v outside [0, 1]", resp.NormalizedGain)}
	}
	return float64(len(out)) / 1024, elapsed, nil
}

// execute runs the pending plan on the fault-free fabric and waits for
// the report.
func (st *sessionSetup) execute() []string {
	out, err := st.h.expect("POST", "/v1/cluster/execute", []byte(`{}`), 202)
	if err != nil {
		return errStrings(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &sub); err != nil || sub.ID == "" {
		return []string{fmt.Sprintf("execute response without id: %.200s", out)}
	}
	out, err = st.h.expect("GET", "/v1/cluster/execute/"+sub.ID+"?wait=120s", nil, 200)
	if err != nil {
		return errStrings(err)
	}
	var v execView
	if err := json.Unmarshal(out, &v); err != nil {
		return errStrings(fmt.Errorf("execute view: %w", err))
	}
	switch {
	case v.Report == nil:
		return []string{fmt.Sprintf("execution %s ended %q without a report: %s", sub.ID, v.Status, v.Error)}
	case v.Report.Outcome != "completed":
		return []string{fmt.Sprintf("execution %s outcome %q: %s", sub.ID, v.Report.Outcome, v.Report.Error)}
	case v.Report.FloorViolations != 0:
		return []string{fmt.Sprintf("execution %s: %d SLA floor violations", sub.ID, v.Report.FloorViolations)}
	}
	return nil
}

// logTail reads the log from the entry after head and returns the new
// head. The head must only grow and the entries must continue the log
// without a gap.
func (st *sessionSetup) logTail(head uint64) (uint64, []string) {
	out, err := st.h.expect("GET", "/v1/cluster/log?limit=10000&from="+strconv.FormatUint(head+1, 10), nil, 200)
	if err != nil {
		return head, errStrings(err)
	}
	var resp struct {
		Head    uint64 `json:"head"`
		Entries []struct {
			Seq uint64 `json:"seq"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return head, errStrings(fmt.Errorf("log response: %w", err))
	}
	if resp.Head < head {
		return head, []string{fmt.Sprintf("log head went back from %d to %d", head, resp.Head)}
	}
	for i, e := range resp.Entries {
		if e.Seq != head+1+uint64(i) {
			return resp.Head, []string{fmt.Sprintf("log entry %d has seq %d, want %d", i, e.Seq, head+1+uint64(i))}
		}
	}
	if uint64(len(resp.Entries)) != resp.Head-head {
		return resp.Head, []string{fmt.Sprintf("log tail from %d returned %d entries, head %d", head+1, len(resp.Entries), resp.Head)}
	}
	return resp.Head, nil
}

// runSessionWorkload is one complete run of churn or churn-fed.
func runSessionWorkload(w sessionWorkload, seed int64, seconds float64, traced bool) (*outcome, error) {
	o := newOutcome()
	st, setups, err := repeatSetup(w.setup, func(st *sessionSetup) error { return st.h.close() })
	if err != nil {
		if st != nil && st.h != nil {
			_ = st.h.close() // the set-up error is what gets reported
		}
		return nil, err
	}
	o.set("setup_s", medianOf(setups), len(setups))

	run := w.measure(o, st, seed, seconds)
	if err := st.h.close(); err != nil {
		return nil, err
	}
	m := run.measured
	o.set("latency_ms", summarize(m.roundMs).Median, len(m.roundMs))
	o.set("gain", run.final.NormalizedGain, 1)

	o.printf("round latency ms (events + reoptimize): %s", summarize(m.roundMs))
	o.printf("events_per_s: %.2f (%d events in %d timed rounds, %.2fs, after %d warm-up rounds)",
		float64(eventsPerRound*m.rounds)/run.wall.Seconds(), eventsPerRound*m.rounds, m.rounds, run.wall.Seconds(), len(run.rounds)-m.rounds)
	o.printf("reoptimize ms: %s; summed %.2fs", summarize(m.reoptMs), sum(m.reoptMs)/1000)
	o.printf("execute ms (every %dth round): %s", execEvery, summarize(m.execMs))
	o.printf("final session: normalized gain %.6f, log head %d, fingerprint %s", run.final.NormalizedGain, run.final.LogHead, run.final.Fingerprint)

	o.layer["server.events_ms"] = medianOf(m.eventsMs)
	o.layer["server.reoptimize_ms"] = medianOf(m.reoptMs)
	o.layer["server.execute_ms"] = medianOf(m.execMs)
	o.layer["server.log_ms"] = medianOf(m.logMs)
	o.layer["server.overhead_s"] = medianOf(m.overhead)
	o.layer["server.response_kb"] = mean(m.reoptKB)

	if traced {
		traceSession(o, w, st, run)
	}
	return o, nil
}
