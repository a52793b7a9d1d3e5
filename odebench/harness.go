package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ode"
	"ode/internal/workload"
)

// maxAttempts bounds how often a transaction is retried after a
// retryable error (deadlock victim, lock-wait deadline) before the
// operation counts as failed.
const maxAttempts = 8

// objTx is the part of a transaction the workloads call. *ode.Tx,
// *client.Tx, *client.STx and workload.Tx all provide it.
type objTx interface {
	Deref(oid ode.OID) (*ode.Object, error)
	Update(oid ode.OID, o *ode.Object) error
	NewVersion(oid ode.OID) (ode.VRef, error)
	DerefVersion(ref ode.VRef) (*ode.Object, error)
}

// opener begins a write transaction on a workload's access path and
// returns it with its commit and abort.
type opener func() (tx objTx, commit func() error, abort func(), err error)

// caller is one closed-loop client: it sends its next transaction only
// after the previous one returned. A caller is used by one goroutine.
type caller struct {
	rng       *rand.Rand
	tr        *tracer // nil when the phase is untraced
	lat       map[string][]float64
	done      []time.Duration // completion time of each transaction, since the phase began
	start     time.Time
	attempted int64
	failed    int64
	rows      int64 // objects the caller's transactions read
	bad       []string
	errs      []string
}

func newCaller(id int, seed int64, phase int, tr *tracer) *caller {
	return &caller{
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7_919 + int64(id))),
		tr:  tr,
		lat: map[string][]float64{},
	}
}

// tx runs one transaction of the given kind and records its latency in
// µs. An error counts the operation as failed.
func (c *caller) tx(kind string, fn func() error) {
	c.attempted++
	if c.tr != nil {
		c.tr.start(kind)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if c.tr != nil {
		c.tr.end()
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	c.lat[kind] = append(c.lat[kind], float64(d)/1e3)
	c.done = append(c.done, time.Since(c.start))
}

// call runs one public call into the system, as a span when traced.
func (c *caller) call(name string, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	c.tr.start(name)
	err := fn()
	c.tr.end()
	return err
}

// mismatch records a wrong output.
func (c *caller) mismatch(format string, args ...any) {
	if len(c.bad) < 20 {
		c.bad = append(c.bad, fmt.Sprintf(format, args...))
	}
}

// write runs body in a write transaction opened by open and commits
// it, retrying retryable failures. Begin and commit are calls of their
// own, so the trace separates them from the body.
func (c *caller) write(open opener, body func(t ops) error) error {
	return retry(func() error {
		var (
			tx     objTx
			commit func() error
			abort  func()
		)
		if err := c.call("begin", func() (err error) {
			tx, commit, abort, err = open()
			return err
		}); err != nil {
			return err
		}
		if err := body(ops{tx, c}); err != nil {
			abort()
			return err
		}
		return c.call("commit", commit)
	})
}

// view runs body in a read-only transaction of store, retrying
// retryable failures: a reader can be chosen as a deadlock victim.
func (c *caller) view(store workload.Store, body func(t workload.Tx) error) error {
	return retry(func() error { return store.View(body) })
}

// retry runs fn until it succeeds, fails for good, or has failed
// maxAttempts times.
func retry(fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !ode.IsRetryable(err) || attempt+1 >= maxAttempts {
			return err
		}
		time.Sleep(ode.RetryBackoff(attempt))
	}
}

// allocs runs fn alone and returns the heap allocations it made.
func allocs(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), err
}

// ops wraps a transaction so that each call is a span of the caller's
// trace.
type ops struct {
	tx objTx
	c  *caller
}

func (o ops) Deref(oid ode.OID) (obj *ode.Object, err error) {
	err = o.c.call("deref", func() error {
		obj, err = o.tx.Deref(oid)
		return err
	})
	return obj, err
}

func (o ops) Update(oid ode.OID, obj *ode.Object) error {
	return o.c.call("update", func() error { return o.tx.Update(oid, obj) })
}

func (o ops) NewVersion(oid ode.OID) (ref ode.VRef, err error) {
	err = o.c.call("newversion", func() error {
		ref, err = o.tx.NewVersion(oid)
		return err
	})
	return ref, err
}

func (o ops) DerefVersion(ref ode.VRef) (obj *ode.Object, err error) {
	err = o.c.call("derefversion", func() error {
		obj, err = o.tx.DerefVersion(ref)
		return err
	})
	return obj, err
}

// phase is the merged record of one timed phase.
type phase struct {
	elapsed   time.Duration
	lat       map[string][]float64
	done      []time.Duration
	attempted int64
	failed    int64
	rows      int64
	bad       []string
	errs      []string
	spans     []span
	heapPeak  uint64        // bytes
	cpu       time.Duration // user and system time of the process
	before    counters
	after     counters
}

// txs is the number of transactions that completed.
func (p *phase) txs() int64 { return p.attempted - p.failed }

// delta is the change of a counter across the phase.
func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

// all pools the latency samples of every kind.
func (p *phase) all() []float64 {
	var out []float64
	for _, xs := range p.lat {
		out = append(out, xs...)
	}
	return out
}

// runPhase runs one closed loop per step, each on its own caller, until
// d has passed, and samples the live heap meanwhile.
func runPhase(e env, seed int64, idx int, d time.Duration, traced bool) (*phase, error) {
	steps := e.steps()
	origin := time.Now()
	var ids atomic.Uint64
	callers := make([]*caller, len(steps))
	for i := range steps {
		var tr *tracer
		if traced {
			tr = newTracer(origin, &ids)
		}
		callers[i] = newCaller(i, seed, idx, tr)
	}
	p := &phase{lat: map[string][]float64{}}
	var err error
	if p.before, err = e.counters(); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	sampled := make(chan uint64)
	go func() { sampled <- sampleHeap(stop) }()

	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for i, step := range steps {
		callers[i].start = start
		wg.Add(1)
		go func(c *caller, step func(*caller)) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(c)
			}
		}(callers[i], step)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	close(stop)
	p.heapPeak = <-sampled

	if p.after, err = e.counters(); err != nil {
		return nil, err
	}
	for _, c := range callers {
		for k, xs := range c.lat {
			p.lat[k] = append(p.lat[k], xs...)
		}
		p.done = append(p.done, c.done...)
		p.attempted += c.attempted
		p.failed += c.failed
		p.rows += c.rows
		p.bad = append(p.bad, c.bad...)
		p.errs = append(p.errs, c.errs...)
		if c.tr != nil {
			p.spans = append(p.spans, c.tr.spans...)
		}
	}
	return p, nil
}

// cpuTime is the user plus system time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap returns the largest live heap (bytes marked live by the
// last garbage collection) seen until stop closes.
func sampleHeap(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > peak {
			peak = s[0].Value.Uint64()
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}
