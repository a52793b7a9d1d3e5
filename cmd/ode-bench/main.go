// ode-bench runs the experiment registry of internal/bench (DESIGN.md
// §5, EXPERIMENTS.md: E1–E18 and the ablations) and prints one table
// per experiment. The source paper is a design paper without measured
// tables, so each experiment regenerates a worked example or
// quantifies a performance claim; the tables here are the rows
// EXPERIMENTS.md records. -run selects experiments by id, -quick
// divides every size by 10 (the macro workload mixes of E17 and E18
// take their CI sizes), and E14's load is fixed: 32 writers against 4
// admission slots under a 50 ms deadline.
//
// Usage:
//
//	ode-bench [-quick] [-run E3,E7] [-http :8080] [-workers N] [-seed N] [-json FILE]
//	ode-bench -workload all|points,bom [-loopback | -connect ADDR | -loopback-shards N | -connect-shards A,B] ...
//	ode-bench -faults [-seed N] [-rounds N] [-ops N] [-dir DIR] [-cancel]
//
// -workload runs only the named mixes' cases of E17 (embedded; with
// -loopback also remote through an in-process server; with -connect
// remote only) or, with a shard flag, of E18. Their rows are the ones
// ci/workload_gate.sh checks against WORKLOAD_BASELINE.json.
//
// With -http, the engine metrics of the world currently under
// measurement are published as expvar at /debug/vars (key "ode",
// canonical metric names as in docs/OBSERVABILITY.md). With -json,
// every measured row is also written to FILE as a JSON array.
//
// With -faults, the experiments are skipped and the crash-recovery
// torture suite (internal/torture, docs/TESTING.md) runs instead:
// randomized traffic with deterministic fault injection, a crash and
// recovery per round, and full invariant verification. The run is
// reproducible from the printed seed.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/bench"
	"ode/internal/torture"
)

var (
	quick   = flag.Bool("quick", false, "smaller workloads (CI-sized)")
	workers = flag.Int("workers", 0,
		"largest worker count of the multi-core experiment E13 (0: GOMAXPROCS), and the worker count of the E17/E18 mixes (0: 4)")

	faults      = flag.Bool("faults", false, "run the crash-recovery torture suite instead of the experiments")
	faultSeed   = flag.Int64("seed", 0, "PRNG seed of the torture suite (0: derive from the clock and print it) and of the E17/E18 mixes (0: 1)")
	faultRounds = flag.Int("rounds", 0, "torture crash/recover rounds (0: suite default)")
	faultOps    = flag.Int("ops", 0, "torture operations per round (0: suite default)")
	faultDir    = flag.String("dir", "", "torture store directory (default: a temp dir, removed on success)")
	faultCancel = flag.Bool("cancel", false,
		"torture: also drive cancellation/timeout/overload traffic against a governed store (docs/TESTING.md)")

	connectAddr = flag.String("connect", "",
		"E15 and E17: measure remotely against this ode-server (started with -bench-schema) instead of an in-process loopback server; with -workload, only the remote rows run")

	workloadNames = flag.String("workload", "",
		"run only the macro workload mixes of E17/E18: comma-separated mix names, or 'all' (docs/TESTING.md); embedded rows unless -loopback, -connect or a shard flag picks the transport")
	loopback = flag.Bool("loopback", false,
		"workload mode: follow the embedded rows with remote rows through an in-process server (baseline recording)")
	connectShards = flag.String("connect-shards", "",
		"E18: comma-separated shard server addresses for the sharding router (scatter-gather scans, 2PC commits); with -workload, only the sharded rows run")
	loopbackShards = flag.Int("loopback-shards", 0,
		"E18: boot N in-process shard servers (default 2); with -workload and N > 1, only the sharded rows run (how BENCH_4.json is recorded)")
)

// liveDB is the most recently opened benchmark database; the expvar
// bridge snapshots its registry on every scrape.
var liveDB atomic.Pointer[ode.DB]

func main() {
	runFilter := flag.String("run", "", "comma-separated experiment ids (default: all)")
	httpAddr := flag.String("http", "", "serve expvar metrics (/debug/vars) on this address")
	jsonPath := flag.String("json", "", "write measured rows to this file as JSON")
	flag.Parse()
	if *faults {
		os.Exit(runFaults())
	}
	if *httpAddr != "" {
		bench.OnOpen = func(db *ode.DB) { liveDB.Store(db) }
		expvar.Publish("ode", expvar.Func(func() any {
			db := liveDB.Load()
			if db == nil {
				return nil
			}
			return db.MetricsRegistry().Snapshot()
		}))
		// The registry snapshot is also served plain (not wrapped in
		// expvar's key/value envelope) for scrapers that want the
		// documented metric names as top-level JSON keys.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			db := liveDB.Load()
			if db == nil {
				w.Write([]byte("{}\n"))
				return
			}
			json.NewEncoder(w).Encode(db.MetricsRegistry().Snapshot())
		})
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ode-bench: metrics server:", err)
			}
		}()
		fmt.Printf("serving metrics on %s/metrics (JSON) and /debug/vars (expvar)\n", *httpAddr)
	}

	filter, shards := *runFilter, []string(nil)
	switch {
	case *connectShards != "":
		shards = strings.Split(*connectShards, ",")
	case *loopbackShards > 1:
		shards = make([]string, *loopbackShards) // empty: in-process shards
	}
	if *workloadNames != "" {
		filter = "E17"
		if shards != nil {
			filter = "E18"
		}
	}
	var rows []bench.Row
	for _, e := range bench.Experiments() {
		if !selected(filter, e.ID) {
			continue
		}
		fmt.Printf("\n== %s: %s ==\n", e.ID, e.Title)
		err := e.Run(bench.Driver{Short: *quick, Workers: *workers, Seed: *faultSeed,
			Connect: *connectAddr, Shards: shards,
			Measure: func(c bench.Case) error {
				if !wanted(c) {
					return nil
				}
				row, err := c.Row(e.ID, c.Reps)
				if err != nil {
					return fmt.Errorf("%s: %w", c.Label(), err)
				}
				fmt.Println("  " + row.String())
				rows = append(rows, row)
				return nil
			}})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	for _, name := range strings.FieldsFunc(*workloadNames, func(r rune) bool { return r == ',' }) {
		if name != "all" && !slices.ContainsFunc(rows, func(r bench.Row) bool { return selected(name, r.Workload) }) {
			fmt.Fprintf(os.Stderr, "ode-bench: workload %q has no %s case in this transport\n", name, filter)
			os.Exit(2)
		}
	}
	if *jsonPath != "" {
		buf, err := bench.EncodeRows(rows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ode-bench: encode results:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ode-bench: write results:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(rows), *jsonPath)
	}
}

// selected reports whether the -run filter (comma-separated ids, any
// case; empty selects all) names experiment id.
func selected(filter, id string) bool {
	if strings.TrimSpace(filter) == "" {
		return true
	}
	for _, f := range strings.Split(filter, ",") {
		if strings.EqualFold(strings.TrimSpace(f), id) {
			return true
		}
	}
	return false
}

// wanted reports whether case c runs: every case without -workload;
// with it, the named mixes (or all) in the transport the flags pick
// (E18's sharded cases only run when a shard flag selected E18).
func wanted(c bench.Case) bool {
	if *workloadNames == "" {
		return true
	}
	if *workloadNames != "all" && !selected(*workloadNames, c.Name) {
		return false
	}
	switch c.Mode {
	case "embedded":
		return *connectAddr == ""
	case "remote":
		return *connectAddr != "" || *loopback
	}
	return true
}

// runFaults is the -faults mode: one torture run, reproducible from
// the printed seed. On failure the store directory is kept for
// post-mortem inspection; on success a temp directory is removed.
func runFaults() int {
	seed := *faultSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	dir := *faultDir
	keepDir := dir != ""
	if !keepDir {
		var err error
		if dir, err = os.MkdirTemp("", "ode-faults-*"); err != nil {
			fmt.Fprintln(os.Stderr, "ode-bench: ", err)
			return 1
		}
	}
	fmt.Printf("torture: seed=%d dir=%s\n", seed, dir)
	fmt.Printf("reproduce: ode-bench -faults -seed %d", seed)
	if *faultRounds != 0 {
		fmt.Printf(" -rounds %d", *faultRounds)
	}
	if *faultOps != 0 {
		fmt.Printf(" -ops %d", *faultOps)
	}
	if *faultCancel {
		fmt.Printf(" -cancel")
	}
	fmt.Println()
	cfg := torture.Config{
		Seed:        seed,
		Rounds:      *faultRounds,
		OpsPerRound: *faultOps,
		Dir:         dir,
		Log:         os.Stdout,
	}
	if *faultCancel {
		cfg.Mode = "cancel"
	}
	res, err := torture.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ode-bench: torture failed (store kept at %s): %v\n", dir, err)
		return 1
	}
	fmt.Printf("\ntorture passed: rounds=%d ops=%d commits=%d aborts=%d kills=%d overloads=%d faults=%d recoveries=%d resurrected=%d\n",
		res.Rounds, res.Ops, res.Commits, res.Aborts, res.TxKills, res.Overloads, res.Faults, res.Recoveries, res.Resurrected)
	if len(res.SitesFired) > 0 {
		sites := make([]string, 0, len(res.SitesFired))
		for s := range res.SitesFired {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		fmt.Println("faults injected by site:")
		for _, s := range sites {
			fmt.Printf("  %-24s %d\n", s, res.SitesFired[s])
		}
	}
	if !keepDir {
		os.RemoveAll(dir)
	}
	return 0
}
