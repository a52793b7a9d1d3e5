// Package bench is the reproduction's experiment registry (DESIGN.md
// §5, EXPERIMENTS.md) and the workload builders it runs on. The paper
// has no quantitative evaluation section (it is a language and
// data-model design paper), so each experiment regenerates one of its
// worked examples (WE) or quantifies one of its performance claims
// (PC); E12–E18 and the two ablations measure the substrate, E17 and
// E18 with the macro workload mixes (mixes.go).
//
// Every experiment is defined once, in Experiments, as a list of named
// cases: untimed setup, a timed op and the op's correctness check. Two
// thin drivers run the list: BenchmarkExperiments in bench_test.go
// (`go test -bench 'Experiments/E3'`) and cmd/ode-bench, which prints
// the rows as tables and, with -json, in the row schema of
// BENCH_1–5.json that ci/bench_gate.sh and ci/workload_gate.sh scan.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Experiment is one registry entry.
type Experiment struct {
	ID, Title string
	body      func(r *run)
}

// Experiments returns the registry in run order: E1–E18, then the
// ablations. Nothing runs until a driver calls Run.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "persistent object creation and reopen scan (WE §2.2-2.5)", e1},
		{"E2", "cluster iteration vs pointer navigation (PC §3)", e2},
		{"E3", "suchthat selection: scan vs index across selectivities (WE §3.1)", e3},
		{"E4", "the by (ordering) clause (WE §3.1)", e4},
		{"E5", "hierarchy iteration: person vs person* (WE §3.1.1)", e5},
		{"E6", "two-variable joins by strategy (WE §3.1)", e6},
		{"E7", "fixpoint parts explosion: worklist vs naive vs semi-naive (WE §3.2)", e7},
		{"E8", "versioning: newversion and deref costs (WE §4)", e8},
		{"E9", "constraint enforcement (WE §5)", e9},
		{"E10", "trigger activation / firing / quiescence (WE §6)", e10},
		{"E11", "volatile vs persistent manipulation (PC §2)", e11},
		{"E12", "crash recovery (repair-on-open)", e12},
		{"E13", "multi-core read path: serial cluster scan and concurrent deref", e13},
		{"E14", "resource governance: admission control, deadlines, bounded WAL", e14},
		{"E15", "network server: embedded vs remote wire protocol", e15},
		{"E16", "commit & wire fast paths: group commit, client object cache", e16},
		{"E17", "macro workload mixes, embedded and remote, and larger-than-RAM churn", e17},
		{"E18", "macro workload mixes through the sharding router (scatter-gather, 2PC)", e18},
		{"BufferPoolSweep", "ablation: buffer pool size vs extent scan", bufferPoolSweep},
		{"CommitDurability", "ablation: fsync per commit vs NoSync", commitDurability},
	}
}

// Driver runs experiments: it supplies the run's settings and
// measures each case the experiment declares.
type Driver struct {
	Short bool // divide every size by 10 (ode-bench -quick, go test -short); the mixes' CI sizes
	// Workers is the largest worker count of E13's deref sweep (0:
	// GOMAXPROCS) and the worker count of the E17/E18 mixes (0: 4).
	Workers int
	Seed    int64  // the mixes' PRNG seed (0: 1); their op counts are a pure function of it
	Connect string // E15's and E17's remote ode-server address ("": in-process loopback)
	// Shards are E18's shard server addresses, in shard order; an empty
	// address boots an in-process shard (nil: two).
	Shards []string
	// Measure runs one case, in declaration order, and records its
	// result. An error aborts the experiment.
	Measure func(c Case) error
}

// Case is one named measurement of an experiment.
type Case struct {
	Name    string // the row's workload name
	Mode    string // a mix's transport: embedded, remote or sharded-N
	Workers int    // concurrent workers, 0 when not applicable
	Reps    int    // ops ode-bench times; go test uses b.N instead
	// Measure runs the op reps times, after any untimed per-run setup,
	// checks its result and returns the time per op and extra metrics.
	Measure func(reps int) (time.Duration, Extra, error)
}

// Label names the case in tables and sub-benchmark names: the row
// name, its mode when it has one, and its worker count when the name
// does not carry it.
func (c Case) Label() string { return label(c.Name, c.Mode, c.Workers) }

func label(name, mode string, workers int) string {
	if mode != "" {
		name += " " + mode
	}
	if workers > 0 && !strings.Contains(name, "workers=") {
		return fmt.Sprintf("%s workers=%d", name, workers)
	}
	return name
}

// Row measures c with reps ops and returns the row of experiment id.
func (c Case) Row(id string, reps int) (Row, error) {
	d, x, err := c.Measure(reps)
	return Row{Experiment: id, Workload: c.Name, Mode: c.Mode, NsPerOp: d.Nanoseconds(), Workers: c.Workers, Extra: x}, err
}

// Extra holds a row's metrics beyond ns/op: counters, speedups. A mix
// row carries ops, ops_per_sec, p50_ns, p90_ns, p99_ns, max_ns, one
// op.<kind> count per op kind and ctr.<name> counter deltas.
type Extra map[string]float64

// Row is one measured value, in the row schema `ode-bench -json`
// writes and ci/gate_lib.sh scans (BENCH_1–5.json). Mode follows
// Workload: ci/workload_gate.sh reads the pair in that order.
type Row struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Mode       string `json:"mode,omitempty"`
	NsPerOp    int64  `json:"ns_per_op"`
	Workers    int    `json:"workers,omitempty"`
	Extra      Extra  `json:"extra,omitempty"`
}

// String renders r as one line of ode-bench's table.
func (r Row) String() string {
	d := time.Duration(r.NsPerOp)
	if d < time.Millisecond {
		d = d.Round(10 * time.Nanosecond)
	} else {
		d = d.Round(time.Microsecond)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %12s", label(r.Workload, r.Mode, r.Workers), d)
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		if !strings.HasPrefix(k, "ctr.") { // counter deltas are in the JSON only
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := r.Extra[k]; v == math.Trunc(v) {
			fmt.Fprintf(&b, "  %s=%.0f", k, v)
		} else {
			fmt.Fprintf(&b, "  %s=%.2f", k, v)
		}
	}
	return b.String()
}

// EncodeRows renders rows as the indented JSON array `ode-bench -json`
// writes: one flat object per row, the layout gate_row scans.
func EncodeRows(rows []Row) ([]byte, error) {
	buf, err := json.MarshalIndent(rows, "", "  ")
	return append(buf, '\n'), err
}

// Run executes e under d: e's untimed setup runs here, and each case
// goes to d.Measure in order. Everything the run opened is closed
// before Run returns.
func (e Experiment) Run(d Driver) error {
	r := &run{Driver: d}
	defer r.unwind(0)
	return catch(func() { e.body(r) })
}

// run is one execution of an experiment body.
type run struct {
	Driver
	cleanups []func()
}

// failure carries an error out of an experiment body or a case op as
// a panic; catch turns it back into the error. It keeps each setup
// step and correctness check to one line (check, expect). Goroutines
// an op starts report errors over channels instead.
type failure struct{ err error }

func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

func failf(format string, args ...any) { check(fmt.Errorf(format, args...)) }

// expect fails the case unless the op produced want results.
func expect(what string, got, want int) {
	if got != want {
		failf("%s: got %d, want %d", what, got, want)
	}
}

func catch(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(failure)
			if !ok {
				panic(p)
			}
			err = f.err
		}
	}()
	fn()
	return nil
}

// cleanup registers fn to run when the experiment ends, or when the
// scoped call that registered it returns.
func (r *run) cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }

// scoped runs fn, then the cleanups fn registered, last first.
func (r *run) scoped(fn func()) {
	defer r.unwind(len(r.cleanups))
	fn()
}

// unwind runs the cleanups past the first mark of them, last first.
func (r *run) unwind(mark int) {
	for len(r.cleanups) > mark {
		last := r.cleanups[len(r.cleanups)-1]
		r.cleanups = r.cleanups[:len(r.cleanups)-1]
		last()
	}
}

// n scales a full size to the run.
func (r *run) n(size int) int {
	if r.Short {
		return size / 10
	}
	return size
}

// timed declares a case whose measure times itself.
func (r *run) timed(name string, workers, reps int, measure func(reps int) (time.Duration, Extra)) {
	r.declare(Case{Name: name, Workers: workers, Reps: reps}, measure)
}

func (r *run) declare(c Case, measure func(reps int) (time.Duration, Extra)) {
	c.Measure = func(reps int) (d time.Duration, x Extra, err error) {
		err = catch(func() { d, x = measure(reps) })
		return d, x, err
	}
	check(r.Measure(c))
}

// op declares a case whose op is repeated reps times and timed as a
// whole.
func (r *run) op(name string, reps int, op func()) {
	r.timed(name, 0, reps, func(reps int) (time.Duration, Extra) { return timeIt(reps, op), nil })
}

// whole declares c as a case whose op is one complete run that times
// itself (a concurrent burst, a crash and recovery, a workload mix):
// reps runs are averaged and the last run's extras reported.
func (r *run) whole(c Case, once func() (time.Duration, Extra)) {
	c.Reps = 1
	r.declare(c, func(reps int) (time.Duration, Extra) {
		var total time.Duration
		var x Extra
		for i := 0; i < reps; i++ {
			d, last := once()
			total, x = total+d, last
		}
		return total / time.Duration(reps), x
	})
}

func timeIt(reps int, op func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		op()
	}
	return time.Since(start) / time.Duration(reps)
}
