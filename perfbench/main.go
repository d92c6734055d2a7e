// Command perfbench is the repository's benchmark. It drives NodeSentry
// through the paths a deployment runs and prints one JSON result line:
//
//	stream  sentryd's standalone wiring (daemon.New) fed JSONL pushes over
//	        HTTP: closed-loop throughput, then an open-loop pass at a fixed
//	        rate for F1 and intake-to-score latency
//	detect  offline core.Detector.Detect per test node, the Table 4 path
//
// Each run pools several D1'-sized fleets whose seeds it draws from --seed.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 15 --trace 0
//
// --trace 1 runs the traced suite on the workload's first fleet, with
// timing wrappers around the public calls into each module, and reports
// per-layer metrics instead of end-to-end ones; the spans are written to
// --spans-dir when the run ends.
// METRICS.md defines every metric and the links predicted between them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, sample counts and failed checks.
type report struct {
	res    result
	counts map[string]int
	// notes are figures printed with the metrics but left out of the
	// result line: the score latencies, which repeat too poorly from seed
	// to seed to gate a change on (see METRICS.md), and the machine's
	// steal share.
	notes []string
	bad   []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, counts: map[string]int{}}
}

// set records a metric and the number of samples behind it (0 for a count
// or a value computed from shapes).
func (r *report) set(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.counts[name] = n
}

// note records a figure that is printed but not part of the result.
func (r *report) note(name string, v float64, unit string, n int) {
	line := fmt.Sprintf("%-32s %14.6g %-6s", name, v, unit)
	if n > 0 {
		line += " n=" + strconv.Itoa(n)
	}
	r.notes = append(r.notes, line+" (not gated)")
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.bad = append(r.bad, fmt.Sprintf(format, args...))
	r.res.Correct = false
}

// print writes one line per metric with its sample count, then the result
// JSON as the last line.
func (r *report) print() error {
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is not finite", name)
			m.Value = -1
			r.res.Metrics[name] = m
		}
		n := ""
		if c := r.counts[name]; c > 0 {
			n = " n=" + strconv.Itoa(c)
		}
		fmt.Printf("%-32s %14.6g %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, b := range r.bad {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", b)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	workload := flag.String("workload", "", "stream | detect")
	seed := flag.Int64("seed", 1, "dataset seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cpu0, err := readCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var rep *report
	var tr *tracer
	switch {
	case *workload != "stream" && *workload != "detect":
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want stream or detect)\n", *workload)
		os.Exit(2)
	case *trace == 1:
		rep, tr, err = runTraced(*workload, *seed)
	case *workload == "stream":
		rep, err = runStream(*seed, *seconds)
	default:
		rep, err = runDetect(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cpu1, err := readCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.note("vm.steal_share", float64(cpu1.steal-cpu0.steal)/float64(max(cpu1.total-cpu0.total, 1)), "ratio", 0)
	if tr != nil {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	if err := rep.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}
