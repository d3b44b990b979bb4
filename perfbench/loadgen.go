package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"

	"adhoctx/internal/client"
)

// worker is one generator goroutine's client and what its acknowledged
// requests promise. cur is the traced request in flight; the worker's
// client connection reads it on the same goroutine.
type worker struct {
	c   *client.Client
	cur int64
	ledger
}

// outcome is one request's result. lat runs from issue (closed loop) or
// due time (open loop) to completion.
type outcome struct {
	read  bool
	ok    bool
	lat   time.Duration
	wait  time.Duration // open loop: due time to start, waiting for a free connection
	late  time.Duration // open loop: how far past due the generator woke
	slept bool          // open loop: the generator waited for the due time
	due   time.Duration // open loop: due time, from the phase start
	end   time.Duration // completion, from the phase start
}

// End-to-end rates and p50s are medians over 1 s windows of a phase, so a
// burst of host noise or a checkpoint stall in one window does not move the
// run's figure.
const window = time.Second

// mark is the process CPU time used by a given offset into a phase.
type mark struct{ at, cpu time.Duration }

// phase is one measured phase's outcomes.
type phase struct {
	wall     time.Duration
	marks    []mark // closed loop: CPU time at each window boundary
	outcomes []outcome
}

func (p *phase) counts() (attempted, failed int64) {
	for _, o := range p.outcomes {
		attempted++
		if !o.ok {
			failed++
		}
	}
	return attempted, failed
}

func (p *phase) committed() int64 {
	a, f := p.counts()
	return a - f
}

// run executes one request, recording a root span when tracing.
func (wk *worker) run(r *request, from time.Time, tr *tracer) error {
	traced := tr.enabled()
	if traced {
		wk.cur = tr.newID()
	}
	err := exec(wk.c, r, &wk.ledger)
	if traced {
		tr.add(span{ID: wk.cur, Trace: wk.cur, Name: "request", Kind: r.Kind, Start: tr.ns(from), End: tr.ns(time.Now())})
		wk.cur = 0
	}
	return err
}

// closedLoop runs every worker back to back for d: each sends its next
// request only after the previous one completes. Stream k of a phase is
// seeded from the phase's stream base plus the worker index.
func closedLoop(s *stack, seed, streamBase int64, d time.Duration, tr *tracer) phase {
	start := time.Now()
	deadline := start.Add(d)
	marks := []mark{{0, cpuTime()}}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				marks = append(marks, mark{time.Since(start), cpuTime()})
				return
			case <-tick.C:
				marks = append(marks, mark{time.Since(start), cpuTime()})
			}
		}
	}()
	var wg sync.WaitGroup
	out := make([][]outcome, numConns)
	for i := range s.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := newGen(s.w, seed, streamBase+int64(i))
			wk := s.workers[i]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				r := g.next()
				err := wk.run(&r, t0, tr)
				now := time.Now()
				out[i] = append(out[i], outcome{read: r.readOnly(), ok: err == nil, lat: now.Sub(t0), end: now.Sub(start)})
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	p := phase{wall: time.Since(start), marks: marks}
	for _, o := range out {
		p.outcomes = append(p.outcomes, o...)
	}
	return p
}

// arrival is one open-loop request and its offset from the phase start.
type arrival struct {
	at  time.Duration
	req request
}

// schedule draws Poisson arrivals at the workload's offered rate for d.
func schedule(w *workload, seed, stream int64, d time.Duration) []arrival {
	g := newGen(w, seed, stream)
	gaps := rand.New(rand.NewSource(seed*1_000_003 + stream + 500_009))
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(gaps.ExpFloat64() / w.rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, req: g.next()})
	}
}

// The generator sleeps in the kernel (nanosleep) until wakeMargin before a
// due time, then polls the clock for the rest. The runtime's own timers wake
// a sleeper with millisecond granularity when a processor is idle, coarser
// than the requests being timed; a goroutine that polls the clock with
// runtime.Gosched keeps the scheduler from polling the network, which delays
// the replies the other worker waits for. A thread blocked in nanosleep
// leaves its processor to the runtime, and the short busy poll at the end
// absorbs the kernel's usual wake-up delay. A longer poll takes processor
// time from the server.
const wakeMargin = 100 * time.Microsecond

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>. The default
// slack of 50 µs lets the kernel wake a sleeper that much late.
const prSetTimerSlack = 29

func sleepUntil(due time.Time) {
	// Slack is per thread, and the goroutine may run on any thread.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for d := time.Until(due) - wakeMargin; d > 0; d = time.Until(due) - wakeMargin {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
	for time.Now().Before(due) {
	}
}

// openLoop dispatches a pre-drawn schedule onto the workers' connections.
// A free worker takes the next arrival in order and waits for its due time;
// the dispatch lock keeps the other worker parked meanwhile, so arrivals
// start in schedule order. An arrival that finds both workers busy starts as soon as one is
// free, having waited for a connection. Latency runs from the due time. An
// arrival not started within twice the phase length counts as failed.
func openLoop(s *stack, sched []arrival, d time.Duration, tr *tracer) phase {
	start := time.Now()
	giveUp := start.Add(2 * d)
	var (
		dispatch sync.Mutex
		next     int
		wg       sync.WaitGroup
	)
	out := make([][]outcome, numConns)
	for i := range s.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk := s.workers[i]
			for {
				dispatch.Lock()
				if next >= len(sched) {
					dispatch.Unlock()
					return
				}
				a := &sched[next]
				next++
				due := start.Add(a.at)
				o := outcome{read: a.req.readOnly(), due: a.at}
				if time.Until(due) > 0 {
					sleepUntil(due)
					o.slept = true
				}
				t0 := time.Now()
				dispatch.Unlock()
				if o.slept {
					o.late = t0.Sub(due)
				} else {
					o.wait = t0.Sub(due)
				}
				if !t0.After(giveUp) {
					o.ok = wk.run(&a.req, due, tr) == nil
				}
				now := time.Now()
				o.lat, o.end = now.Sub(due), now.Sub(start)
				out[i] = append(out[i], o)
			}
		}(i)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, o := range out {
		p.outcomes = append(p.outcomes, o...)
	}
	return p
}
