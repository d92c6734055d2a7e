package main

import "time"

// clock is the time source of the open-loop generator.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace is the open-loop generator: from the calling goroutine it calls
// send(i) for i in [0, n), with call i due at start + i*interval. It never
// sends early and never skips or bunches to catch up: a call that starts
// after its due time (because an earlier send overran the interval) goes
// out at once, and late[i] records by how much it missed its due time.
// onStart receives start before the first send, so that observers can
// time work from each call's due time. The first send error stops the
// schedule.
func pace(n int, interval time.Duration, c clock, onStart func(time.Time), send func(i int) error) (late []time.Duration, err error) {
	start := c.Now()
	onStart(start)
	late = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		l := c.Now().Sub(due)
		if l < 0 {
			l = 0
		}
		late = append(late, l)
		if err := send(i); err != nil {
			return late, err
		}
	}
	return late, nil
}
