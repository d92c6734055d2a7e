package main

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"nodesentry/internal/dataset"
	"nodesentry/internal/ingest"
	"nodesentry/internal/runtime"
)

func TestNewestSampleAttribution(t *testing.T) {
	const step, win = 60, 20
	// One segment whose 60-sample match period completes at 1000+59*60;
	// a later one that has not completed a match period.
	segs := []segMatch{
		{firstTs: 1000, matchTs: 1000 + 59*step},
		{firstTs: 9000, matchTs: -1},
	}
	cases := []struct {
		name     string
		winStart int64
		want     int64
	}{
		// The match period's first windows were buffered until the match:
		// their scores wait on the sample that completed it.
		{"first window waits on the match", 1000, 1000 + 59*step},
		{"window ending inside the match period", 1000 + 20*step, 1000 + 59*step},
		{"window ending on the matching sample", 1000 + 40*step, 1000 + 59*step},
		// After the match a window depends only on its own last sample.
		{"window after the match", 1000 + 60*step, 1000 + 79*step},
		{"segment without a completed match", 9000, 9000 + 19*step},
		{"window before any segment", 500, 500 + 19*step},
	}
	for _, c := range cases {
		if got := newestSample(c.winStart, win, step, segs); got != c.want {
			t.Errorf("%s: newestSample(%d) = %d, want %d", c.name, c.winStart, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := make([]float64, 100)
	for i := range seq {
		seq[i] = float64(100 - i) // 100..1, unsorted input
	}
	cases := []struct {
		values []float64
		p      float64
		want   float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{4, 1, 3, 2}, 25, 1.75},
		{[]float64{7}, 99, 7},
		{seq, 50, 50.5},
		{seq, 99, 99.01},
	}
	for _, c := range cases {
		if got := percentile(c.values, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.values, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if seq[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
}

// TestFleetSeeds pins what runs rely on: a seed always draws the same
// fleets, distinct from each other, and the traced run's single fleet is
// the first fleet of the untraced run.
func TestFleetSeeds(t *testing.T) {
	a, b := fleetSeeds(7, detectFleets), fleetSeeds(7, detectFleets)
	seen := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 drew %v, then %v", a, b)
		}
		if seen[a[i]] {
			t.Fatalf("seed 7 drew fleet seed %d twice: %v", a[i], a)
		}
		seen[a[i]] = true
	}
	if first := fleetSeeds(7, 1)[0]; first != a[0] {
		t.Errorf("traced fleet %d, want the untraced run's first fleet %d", first, a[0])
	}
	if c := fleetSeeds(8, detectFleets); c[0] == a[0] {
		t.Errorf("seeds 7 and 8 drew the same first fleet %d", c[0])
	}
}

func TestUnstolenShare(t *testing.T) {
	a := cpuTicks{steal: 10, busy: 100, total: 300}
	cases := []struct {
		b    cpuTicks
		want float64
	}{
		{cpuTicks{steal: 10, busy: 300, total: 700}, 1},    // nothing stolen
		{cpuTicks{steal: 60, busy: 300, total: 700}, 0.75}, // a quarter of the busy time stolen
		{cpuTicks{steal: 10, busy: 100, total: 500}, 1},    // idle throughout
		{cpuTicks{steal: 110, busy: 200, total: 400}, 0},   // all of it stolen
	}
	for _, c := range cases {
		if got := unstolenShare(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("unstolenShare(%+v, %+v) = %v, want %v", a, c.b, got, c.want)
		}
	}
	if c, err := readCPU(); err != nil {
		t.Fatal(err)
	} else if c.steal > c.busy || c.busy > c.total || c.total <= 0 {
		t.Errorf("readCPU = %+v: want 0 <= steal <= busy <= total, total > 0", c)
	}
}

// fakeClock advances only when the generator sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPaceSchedulesFromDueTimes(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	cost := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	var sentAt []time.Duration
	var start time.Time
	late, err := pace(len(cost), 10*ms, clk, func(t0 time.Time) { start = t0 }, func(i int) error {
		sentAt = append(sentAt, clk.Now().Sub(start))
		clk.now = clk.now.Add(cost[i])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Due at 0, 10, 20, 30, 40 ms. The 25 ms send pushes the next two out
	// late; the generator neither skips them nor waits to catch up, and is
	// back on schedule by the last one.
	wantSent := []time.Duration{0, 10 * ms, 35 * ms, 37 * ms, 40 * ms}
	wantLate := []time.Duration{0, 0, 15 * ms, 7 * ms, 0}
	for i := range cost {
		if sentAt[i] != wantSent[i] || late[i] != wantLate[i] {
			t.Errorf("send %d at %v late %v, want at %v late %v", i, sentAt[i], late[i], wantSent[i], wantLate[i])
		}
	}
}

func TestPaceStopsOnSendError(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	boom := errors.New("boom")
	calls := 0
	late, err := pace(5, time.Millisecond, clk, func(time.Time) {}, func(i int) error {
		calls++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 || len(late) != 3 {
		t.Fatalf("pace returned err %v after %d calls with %d lateness entries; want boom after 3", err, calls, len(late))
	}
}

func TestSampleLineDecodesToTheSameValues(t *testing.T) {
	values := []float64{0.4, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, -0.1 + 0.2, 12345678.901234567}
	line := appendSampleLine(nil, []byte(`"cn-0001"`), 1260, values)
	job := appendJobLine(nil, []byte(`"cn-0001"`), 7, 1200)
	for _, raw := range []string{string(job), string(line)} {
		if !strings.HasSuffix(raw, "\n") {
			t.Fatalf("line %q lacks its newline", raw)
		}
	}
	var l ingest.Line
	if err := json.Unmarshal(line, &l); err != nil {
		t.Fatal(err)
	}
	if l.Node != "cn-0001" || l.Time != 1260 || len(l.Values) != len(values) {
		t.Fatalf("decoded %+v", l)
	}
	for i, v := range values {
		got := float64(l.Values[i])
		if math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Errorf("value %d decoded as %v, want %v", i, got, v)
		}
	}
	var j ingest.Line
	if err := json.Unmarshal(job, &j); err != nil {
		t.Fatal(err)
	}
	if j.Job == nil || *j.Job != 7 || j.Start != 1200 {
		t.Fatalf("job line decoded as %+v", j)
	}
}

// TestStreamPassesMatchReference drives a small fleet through sentryd's
// wiring and through the traced reassembly, closed and open loop, and
// requires every pass to reproduce the reference replay.
func TestStreamPassesMatchReference(t *testing.T) {
	ds := dataset.Build(dataset.Tiny())
	det, err := trainDetector(ds, quickOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := setupStream(ds, det)
	if err != nil {
		t.Fatal(err)
	}
	hook, err := startWebhook()
	if err != nil {
		t.Fatal(err)
	}
	defer hook.close()
	tr := newTracer()
	builders := map[string]func(func(runtime.Alert)) (pipeline, error){
		"daemon": daemonBuilder(env, hook),
		"traced": tracedBuilder(env, hook, tr),
	}
	for name, build := range builders {
		for _, interval := range []time.Duration{0, 200 * time.Microsecond} {
			res, err := pass(env, build, interval, tr)
			if err != nil {
				t.Fatalf("%s pass (interval %v): %v", name, interval, err)
			}
			for _, b := range res.check(env) {
				t.Errorf("%s pass (interval %v): %s", name, interval, b)
			}
			if interval > 0 && int64(len(res.latMs)) != res.windows {
				t.Errorf("%s open loop: %d latencies for %d windows", name, len(res.latMs), res.windows)
			}
		}
	}
	if env.scored == 0 {
		t.Fatal("reference replay scored nothing")
	}
	if d := tr.durations("runtime.ingest", time.Microsecond, 0); len(d) != 2*env.in.samples {
		t.Errorf("traced passes timed %d monitor calls, want %d", len(d), 2*env.in.samples)
	}
}
