package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// rssEvery is how often watchRSS samples. A heap that outgrows the
// collector's pace stays large for at least one collection cycle, far
// longer than this.
const rssEvery = 2 * time.Millisecond

// rssMB reads the process's resident set size.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("read RSS: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("read RSS: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("read RSS: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// watchRSS returns freed memory to the operating system, then samples the
// resident set size every rssEvery from its own goroutine until the
// returned stop is called; stop waits for the goroutine and returns the
// largest sample. A fleet's peak is taken this way, rather than from the
// process's high-water mark, so that a run can report the median over its
// fleets: how far the heap outgrows the collector's pace varies from run
// to run of one seed, and one fleet in about twenty still overshoots by a
// fifth.
func watchRSS() (stop func() (float64, error)) {
	debug.FreeOSMemory()
	done := make(chan struct{})
	type result struct {
		peak float64
		err  error
	}
	out := make(chan result, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var r result
		sample := func() {
			v, err := rssMB()
			if err != nil {
				r.err = err
			}
			r.peak = max(r.peak, v)
		}
		sample()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				sample()
				out <- r
				return
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		r := <-out
		return r.peak, r.err
	}
}

// cpuTicks is the machine's cumulative CPU time from /proc/stat, in
// clock ticks: stolen (the hypervisor ran something else while a CPU of
// the machine wanted to run), busy (any state but idle and I/O wait,
// steal included) and total.
type cpuTicks struct{ steal, busy, total int64 }

func readCPU() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, fmt.Errorf("read CPU time: %w", err)
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("read CPU time: malformed /proc/stat line %q", line)
	}
	var c cpuTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("read CPU time: %w", err)
		}
		c.total += n
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			c.steal = n
			c.busy += n
		default:
			c.busy += n
		}
	}
	return c, nil
}

// stealClock times an interval with the hypervisor's steal taken out. On
// a shared virtual machine a neighbour's load shows up as steal: on a
// 2-vCPU guest, a stretch of minutes with a fifth of all CPU time stolen
// cut stream's closed-loop throughput from 9,300 to 5,900 samples/s with
// no change to the code. Scaling wall time by the share of wanted CPU
// time that was not stolen keeps such stretches from reading as
// regressions.
type stealClock struct {
	start time.Time
	cpu   cpuTicks
}

func startClock() (stealClock, error) {
	c, err := readCPU()
	return stealClock{start: time.Now(), cpu: c}, err
}

// unstolen returns the share of the CPU time the machine wanted since the
// clock started that the hypervisor did not take.
func (s stealClock) unstolen() (float64, error) {
	c, err := readCPU()
	if err != nil {
		return 0, err
	}
	return unstolenShare(s.cpu, c), nil
}

// unstolenShare is the share of the busy CPU time between readings a and b
// that was not stolen; 1 when the machine wanted none.
func unstolenShare(a, b cpuTicks) float64 {
	busy := b.busy - a.busy
	if busy <= 0 {
		return 1
	}
	return 1 - float64(b.steal-a.steal)/float64(busy)
}

// elapsed returns the wall time since the clock started, scaled by
// unstolen.
func (s stealClock) elapsed() (time.Duration, error) {
	wall := time.Since(s.start)
	share, err := s.unstolen()
	return time.Duration(float64(wall) * share), err
}
