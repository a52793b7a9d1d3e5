// Command odebench is the repository's benchmark. It runs one seeded,
// closed-loop workload against the ode engine — embedded (scan),
// through a loopback ode server (oltp), or through a two-shard router
// with two-phase commit (xshard) — with the engine's default options,
// checks every output against a model of the loaded data, and prints
// its metrics: end-to-end ones untraced, per-layer ones from a traced
// run. BENCHMARK.md in this directory documents the workloads, the
// metrics and the layer each one measures.
//
//	odebench --workload scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when an output was wrong, 2 when the run could
// not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run builds its workload's data set setupReps times, and more
// often while the builds took less than setupMin in all; setup_s is
// the median, and the last build is the one measured.
const (
	setupReps = 3
	setupMin  = 2 * time.Second
)

// env is one built workload: its data, servers and clients, and the
// model its outputs are checked against.
type env interface {
	// steps returns one closed-loop step per caller; a step runs one
	// transaction on its caller.
	steps() []func(*caller)
	// counters snapshots the public metric registries.
	counters() (counters, error)
	// pages is the size of the data set in 4 KiB pages.
	pages() uint32
	// probe runs one solo full-extent read on c after the timed phases,
	// with nothing else running, and returns its row count and heap
	// allocations (0, 0 for a workload without scans).
	probe(c *caller) (rows, allocs float64, err error)
	// verify checks the final state against the model, after the timed
	// phases; it may close and reopen the databases.
	verify() ([]string, error)
	close()
}

// spec describes one workload.
type spec struct {
	name     string
	readKind string // the latency kind read_p50_us reports
	// opKind is the transaction kind cpu_us_per_op divides by; empty
	// means every transaction.
	opKind   string
	embedded bool // no server between the callers and the engine
	setup    func(seed int64) (env, error)
	// figures are the workload's own end-to-end report lines.
	figures []figure
}

// figure is a report line computed from the latency samples of one
// transaction kind: their q-quantile times scale (µs to unit), or, for
// q 0, scale times that kind's transactions per second.
type figure struct {
	name, kind, unit string
	q, scale         float64
}

var specs = []*spec{scanSpec, oltpSpec, xshardSpec}

func lookup(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// outcome is everything one run reports.
type outcome struct {
	attempted, failed int64
	bad               []string
	metrics           []metric
	lines             []string
}

func main() {
	name := flag.String("workload", "", "workload: scan, oltp or xshard")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "odebench: need --workload scan|oltp|xshard, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odebench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "odebench: %v\n", err)
		os.Exit(2)
	}
	if len(out.bad) > 0 {
		os.Exit(1)
	}
}

// run builds the workload (see setupReps), measures the last build for
// d and checks it.
func run(w *spec, seed int64, d time.Duration, traced bool) (*outcome, error) {
	var (
		e      env
		setups []float64
		spent  time.Duration
	)
	for len(setups) < setupReps || spent < setupMin {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer e.close()
	runtime.GC()
	out := &outcome{}
	out.linef("dataset_pages %d (pool %d pages, object cache %d objects, fsync at every commit)", e.pages(), 1024, 4096)

	var p *phase
	if !traced {
		var err error
		if p, err = runPhase(e, seed, 0, d, false); err != nil {
			return nil, err
		}
		median, _ := quantile(setups, 0.5)
		out.endToEnd(w, p, median)
	} else {
		// Half the time untraced, half traced, on the same data: the
		// difference in throughput is the tracing overhead.
		plain, err := runPhase(e, seed, 0, d/2, false)
		if err != nil {
			return nil, err
		}
		if p, err = runPhase(e, seed, 1, d/2, true); err != nil {
			return nil, err
		}
		out.account(plain)
		c := newCaller(0, seed, 2, nil)
		rows, allocs, err := e.probe(c)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		out.bad = append(out.bad, c.bad...)
		out.perLayer(w, plain, p, div(allocs, rows))
		if err := saveTrace(w.name, seed, p.spans); err != nil {
			return nil, err
		}
	}
	out.account(p)
	bad, err := e.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	out.bad = append(out.bad, bad...)
	return out, nil
}

// account adds a phase's operations and wrong outputs to the outcome.
func (o *outcome) account(p *phase) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.bad = append(o.bad, p.bad...)
	for _, e := range p.errs {
		o.lines = append(o.lines, "error "+e)
	}
}

// endToEnd computes the untraced metrics. The result object carries
// the four that stay within their bounds from run to run on a small
// shared host; the rest are report lines (BENCHMARK.md says why).
func (o *outcome) endToEnd(w *spec, p *phase, setup float64) {
	secs := p.elapsed.Seconds()
	read, _ := quantile(p.lat[w.readKind], 0.5)
	o.add("setup_s", "s", setup)
	o.add("heap_peak_mb", "MiB", float64(p.heapPeak)/(1<<20))
	o.add("read_p50_us", "us", read)
	ops := p.txs()
	if w.opKind != "" {
		ops = int64(len(p.lat[w.opKind]))
	}
	o.add("cpu_us_per_op", "us", div(float64(p.cpu.Microseconds()), float64(ops)))
	o.linef("read_p50_us n=%d (%s transactions)", len(p.lat[w.readKind]), w.readKind)
	o.linef("tx_per_s %g tx/s", float64(p.txs())/secs)
	o.linef("rows_per_s %g rows/s", float64(p.rows)/secs)
	o.linef("fail_ratio %g failed/attempted (%d/%d)", div(float64(p.failed), float64(p.attempted)), p.failed, p.attempted)
	win := make([]int, int(p.elapsed/time.Second)+1)
	for _, t := range p.done {
		win[int(t/time.Second)]++
	}
	o.linef("tx_per_1s_window %v", win)
	all := p.all()
	o.figure("tx_p50_us", "us", all, 0.5, 1)
	o.figure("tx_p99_us", "us", all, 0.99, 1)
	for _, f := range w.figures {
		xs := p.lat[f.kind]
		if f.q == 0 { // a throughput: rows read by this kind per second
			o.linef("%s %g %s", f.name, f.scale*float64(len(xs))/secs, f.unit)
			continue
		}
		o.figure(f.name, f.unit, xs, f.q, f.scale)
	}
}

// figure reports the q-quantile of xs scaled to unit, with its sample
// count; a percentile above the median with fewer than minBeyond
// samples beyond it is reported as unsupported instead.
func (o *outcome) figure(name, unit string, xs []float64, q, scale float64) {
	if q > 0.5 && !supported(len(xs), q) {
		o.linef("%s unsupported %s n=%d (fewer than %d samples above it)", name, unit, len(xs), minBeyond)
		return
	}
	v, _ := quantile(xs, q)
	o.linef("%s %g %s n=%d", name, v*scale, unit, len(xs))
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// print writes the report lines, every metric by name with its unit,
// and the result object as the last line.
func (o *outcome) print(w io.Writer) error {
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	for _, b := range o.bad {
		fmt.Fprintln(w, "MISMATCH", b)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	names := make([]string, 0, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = val{m.value, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	buf, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(o.bad) == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// saveTrace writes the traced phase's spans under ODEBENCH_OUT (or the
// temp directory) as JSON lines.
func saveTrace(workload string, seed int64, spans []span) error {
	dir := os.Getenv("ODEBENCH_OUT")
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed)), spans)
}
