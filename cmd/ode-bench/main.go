// ode-bench runs the reproduction's experiment suite (DESIGN.md §5,
// EXPERIMENTS.md) and prints one table per experiment. The source
// paper is a design paper without measured tables, so each experiment
// regenerates a worked example or quantifies a performance claim; the
// tables here are the rows EXPERIMENTS.md records.
//
// Usage:
//
//	ode-bench [-quick] [-run E3,E7] [-http :8080] [-workers N] [-json FILE]
//	          [-max-tx N] [-deadline D] [-overload N]
//	ode-bench -faults [-seed N] [-rounds N] [-ops N] [-dir DIR] [-cancel]
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
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"strings"
	"time"

	"ode"
	"ode/client"
	"ode/internal/bench"
	"ode/internal/server"
	"ode/internal/torture"
)

var (
	quick   = flag.Bool("quick", false, "smaller workloads (CI-sized)")
	workers = flag.Int("workers", runtime.GOMAXPROCS(0),
		"max worker count for the multi-core experiment (E13)")

	maxTx = flag.Int("max-tx", 4,
		"admission slots (Options.MaxConcurrentTx) for the governance experiment (E14)")
	deadline = flag.Duration("deadline", 50*time.Millisecond,
		"per-transaction deadline for the governance experiment (E14)")
	overload = flag.Int("overload", 8,
		"offered-load multiplier over -max-tx for the governance experiment (E14)")

	faults      = flag.Bool("faults", false, "run the crash-recovery torture suite instead of the experiments")
	faultSeed   = flag.Int64("seed", 0, "torture PRNG seed (0: derive from the clock and print it)")
	faultRounds = flag.Int("rounds", 0, "torture crash/recover rounds (0: suite default)")
	faultOps    = flag.Int("ops", 0, "torture operations per round (0: suite default)")
	faultDir    = flag.String("dir", "", "torture store directory (default: a temp dir, removed on success)")
	faultCancel = flag.Bool("cancel", false,
		"torture: also drive cancellation/timeout/overload traffic against a governed store (docs/TESTING.md)")

	connectAddr = flag.String("connect", "",
		"E15: measure against this remote ode-server (started with -bench-schema) instead of an in-process loopback server")

	workloadNames = flag.String("workload", "",
		"run the macro workload suite instead of the experiments: comma-separated mix names, or 'all' (docs/TESTING.md); -seed/-workers/-quick apply; with -connect the mixes run against that server, with -loopback both embedded and loopback-remote rows are produced")
	loopback = flag.Bool("loopback", false,
		"workload mode: follow the embedded rows with remote rows through an in-process server (baseline recording)")
	connectShards = flag.String("connect-shards", "",
		"workload mode: comma-separated shard server addresses; the remote-capable mixes run through the sharding router (scatter-gather scans, 2PC commits)")
	loopbackShards = flag.Int("loopback-shards", 0,
		"workload mode: boot N in-process shard servers and run the remote-capable mixes through the router (how BENCH_4.json is recorded)")
)

// benchResult is one measured row of the machine-readable output.
type benchResult struct {
	Experiment string             `json:"experiment"`
	Workload   string             `json:"workload"`
	NsPerOp    int64              `json:"ns_per_op"`
	Workers    int                `json:"workers,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

var (
	results []benchResult
	curExp  string
)

// record captures a measured row for -json in addition to the table.
func record(workload string, d time.Duration, nw int, extra map[string]float64) {
	results = append(results, benchResult{
		Experiment: curExp,
		Workload:   workload,
		NsPerOp:    d.Nanoseconds(),
		Workers:    nw,
		Extra:      extra,
	})
}

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
	if *workloadNames != "" {
		os.Exit(runWorkloads(*jsonPath))
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

	wanted := map[string]bool{}
	for _, id := range strings.Split(*runFilter, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			wanted[id] = true
		}
	}
	type experiment struct {
		id, title string
		run       func() error
	}
	experiments := []experiment{
		{"E1", "persistent object creation and reopen scan (WE §2.2-2.5)", runE1},
		{"E2", "cluster iteration vs pointer navigation (PC §3)", runE2},
		{"E3", "suchthat selection: scan vs index across selectivities (WE §3.1)", runE3},
		{"E4", "the by (ordering) clause (WE §3.1)", runE4},
		{"E5", "hierarchy iteration: person vs person* (WE §3.1.1)", runE5},
		{"E6", "two-variable joins by strategy (WE §3.1)", runE6},
		{"E7", "fixpoint parts explosion: worklist vs naive vs semi-naive (WE §3.2)", runE7},
		{"E8", "versioning: newversion and deref costs (WE §4)", runE8},
		{"E9", "constraint enforcement (WE §5)", runE9},
		{"E10", "trigger activation / firing / quiescence (WE §6)", runE10},
		{"E11", "volatile vs persistent manipulation (PC §2)", runE11},
		{"E12", "crash recovery (repair-on-open)", runE12},
		{"E13", "multi-core read path: parallel forall and concurrent deref", runE13},
		{"E14", "resource governance: admission control, deadlines, bounded WAL", runE14},
		{"E15", "network server: embedded vs remote wire protocol", runE15},
		{"E16", "commit & wire fast paths: group commit, client object cache", runE16},
	}
	for _, e := range experiments {
		if len(wanted) > 0 && !wanted[e.id] {
			continue
		}
		curExp = e.id
		fmt.Printf("\n== %s: %s ==\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ode-bench: encode results:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ode-bench: write results:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d rows to %s\n", len(results), *jsonPath)
	}
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

func scale(n int) int {
	if *quick {
		return n / 10
	}
	return n
}

// timeIt runs fn `reps` times and returns the per-rep duration.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

func row(cols ...any) {
	parts := make([]string, len(cols))
	var labels []string
	for i, c := range cols {
		switch v := c.(type) {
		case time.Duration:
			parts[i] = fmt.Sprintf("%12s", v.Round(time.Microsecond))
			record(strings.Join(labels, " "), v, 0, nil)
		case string:
			parts[i] = fmt.Sprintf("%-28s", v)
			labels = append(labels, v)
		default:
			parts[i] = fmt.Sprintf("%10v", v)
			labels = append(labels, fmt.Sprint(v))
		}
	}
	fmt.Println("  " + strings.Join(parts, " "))
}

func runE1() error {
	for _, n := range []int{scale(1000), scale(10000), scale(100000)} {
		w, err := bench.NewWorld(nil)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := w.LoadStock(n); err != nil {
			w.Close()
			return err
		}
		create := time.Since(start)
		if err := w.DB.Checkpoint(); err != nil {
			w.Close()
			return err
		}
		scan, err := timeIt(3, func() error {
			return w.DB.View(func(tx *ode.Tx) error {
				got, err := ode.Forall(tx, w.Stock).Count()
				if got != n {
					return fmt.Errorf("scan found %d of %d", got, n)
				}
				return err
			})
		})
		if err != nil {
			w.Close()
			return err
		}
		st := w.DB.Stats()
		row(fmt.Sprintf("objects=%d", n), "create", create, "scan", scan,
			fmt.Sprintf("%6d pages", st.Pages))
		w.Close()
	}
	return nil
}

func runE2() error {
	n := scale(50000)
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.LoadStock(n); err != nil {
		return err
	}
	head, err := w.LoadChain(n)
	if err != nil {
		return err
	}
	scan, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			_, err := ode.Forall(tx, w.Stock).Count()
			return err
		})
	})
	if err != nil {
		return err
	}
	chase, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			for oid := head; oid != ode.NilOID; {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				oid = o.MustGet("next").OID()
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	row(fmt.Sprintf("N=%d forall-iterator", n), scan)
	row(fmt.Sprintf("N=%d pointer-navigation", n), chase)
	fmt.Printf("  (declarative iterators also admit indexes — see E3 — and predicates;\n   pointer navigation admits neither)\n")
	return nil
}

func runE3() error {
	n := scale(50000)
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.LoadStock(n); err != nil {
		return err
	}
	measure := func(selPct int, indexed bool) (time.Duration, error) {
		lo := ode.Int(int64(n - n*selPct/100))
		return timeIt(3, func() error {
			return w.DB.View(func(tx *ode.Tx) error {
				q := ode.Forall(tx, w.Stock).SuchThat(ode.Field("qty").Ge(lo))
				if !indexed {
					q = q.NoIndex()
				}
				got, err := q.Count()
				if err != nil {
					return err
				}
				if want := n * selPct / 100; got != want {
					return fmt.Errorf("matched %d, want %d", got, want)
				}
				return nil
			})
		})
	}
	for _, selPct := range []int{1, 10, 100} {
		scan, err := measure(selPct, false)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("select=%3d%% extent-scan", selPct), scan)
	}
	if err := w.DB.CreateIndex(w.Stock, "qty"); err != nil {
		return err
	}
	for _, selPct := range []int{1, 10, 100} {
		idx, err := measure(selPct, true)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("select=%3d%% index-scan", selPct), idx)
	}
	return nil
}

func runE4() error {
	n := scale(50000)
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.LoadStock(n); err != nil {
		return err
	}
	unordered, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			_, err := ode.Forall(tx, w.Stock).Count()
			return err
		})
	})
	if err != nil {
		return err
	}
	ordered, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			return ode.Forall(tx, w.Stock).By("name").Do(func(ode.Item) (bool, error) {
				return true, nil
			})
		})
	})
	if err != nil {
		return err
	}
	row(fmt.Sprintf("N=%d unordered", n), unordered)
	row(fmt.Sprintf("N=%d by (name)", n), ordered)
	return nil
}

func runE5() error {
	n := scale(40000)
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.LoadPersons(n); err != nil {
		return err
	}
	exact, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			_, err := ode.Forall(tx, w.Person).Count()
			return err
		})
	})
	if err != nil {
		return err
	}
	star, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			_, err := ode.Forall(tx, w.Person).Subtypes().Count()
			return err
		})
	})
	if err != nil {
		return err
	}
	row(fmt.Sprintf("person  (%d objects)", n/2), exact)
	row(fmt.Sprintf("person* (%d objects)", n), star)
	return nil
}

func runE6() error {
	nEmp, nDept := scale(20000), 100
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := w.LoadEmpDept(nEmp, nDept); err != nil {
		return err
	}
	if err := w.DB.CreateIndex(w.Dept, "deptno"); err != nil {
		return err
	}
	for _, s := range []ode.JoinStrategy{ode.NestedLoop, ode.HashJoin, ode.IndexNestedLoop} {
		reps := 3
		if s == ode.NestedLoop {
			reps = 1
		}
		d, err := timeIt(reps, func() error {
			return w.DB.View(func(tx *ode.Tx) error {
				j := ode.Forall(tx, w.Emp).JoinWith(ode.Forall(tx, w.Dept)).
					OnEq("deptno", "deptno").Strategy(s)
				pairs, err := j.Count()
				if err != nil {
					return err
				}
				if pairs != nEmp {
					return fmt.Errorf("pairs=%d", pairs)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("emp(%d) ⋈ dept(%d) %s", nEmp, nDept, s), d)
	}
	return nil
}

func runE7() error {
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	for _, depth := range []int{3, 6, 9} {
		root, total, err := w.LoadPartDAG(depth, 30, 5, int64(depth))
		if err != nil {
			return err
		}
		type strat struct {
			name string
			fn   func([]ode.Value, ode.SuccFunc) (*ode.Set, error)
		}
		for _, s := range []strat{
			{"worklist (O++ loop)", ode.TransitiveClosure},
			{"naive", ode.NaiveTransitiveClosure},
			{"semi-naive", ode.SemiNaiveTransitiveClosure},
		} {
			var size int
			d, err := timeIt(3, func() error {
				return w.DB.View(func(tx *ode.Tx) error {
					set, err := s.fn([]ode.Value{ode.Ref(root)}, bench.Subparts(tx))
					if err != nil {
						return err
					}
					size = set.Len()
					return nil
				})
			})
			if err != nil {
				return err
			}
			row(fmt.Sprintf("depth=%d parts=%d closure=%d %s", depth, total, size, s.name), d)
		}
	}
	return nil
}

func runE8() error {
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	oids, err := w.LoadStock(1)
	if err != nil {
		return err
	}
	oid := oids[0]
	nv, err := timeIt(200, func() error {
		return w.DB.RunTx(func(tx *ode.Tx) error {
			_, err := tx.NewVersion(oid)
			return err
		})
	})
	if err != nil {
		return err
	}
	row("newversion", nv)
	for _, chain := range []int{16, 128} {
		// Top the chain up to the target length.
		cur := 0
		w.DB.View(func(tx *ode.Tx) error {
			v, _ := tx.CurrentVersion(oid)
			cur = int(v)
			return nil
		})
		if cur < chain {
			w.DB.RunTx(func(tx *ode.Tx) error {
				for i := cur; i < chain; i++ {
					if _, err := tx.NewVersion(oid); err != nil {
						return err
					}
				}
				return nil
			})
		}
		g, err := timeIt(500, func() error {
			return w.DB.View(func(tx *ode.Tx) error {
				_, err := tx.Deref(oid)
				return err
			})
		})
		if err != nil {
			return err
		}
		ref := ode.VRef{OID: oid, Version: uint32(chain / 2)}
		sp, err := timeIt(500, func() error {
			return w.DB.View(func(tx *ode.Tx) error {
				_, err := tx.DerefVersion(ref)
				return err
			})
		})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("chain=%3d generic deref", chain), g)
		row(fmt.Sprintf("chain=%3d pinned deref", chain), sp)
	}
	return nil
}

func runE9() error {
	for _, nc := range []int{0, 1, 4} {
		s := ode.NewSchema()
		builder := ode.NewClass("acct").Field("bal", ode.TInt)
		for k := 0; k < nc; k++ {
			builder = builder.Constraint(fmt.Sprintf("c%d", k), "bal >= 0",
				func(_ ode.Store, o *ode.Object) (bool, error) {
					return o.MustGet("bal").Int() >= 0, nil
				})
		}
		acct := builder.Register(s)
		dir, err := os.MkdirTemp("", "ode-e9")
		if err != nil {
			return err
		}
		db, err := ode.Open(filepath.Join(dir, "c.odb"), s, &ode.Options{NoSync: true})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		db.CreateCluster(acct)
		var oid ode.OID
		db.RunTx(func(tx *ode.Tx) error {
			o := ode.NewObject(acct)
			o.MustSet("bal", ode.Int(1))
			var err error
			oid, err = tx.PNew(acct, o)
			return err
		})
		d, err := timeIt(500, func() error {
			return db.RunTx(func(tx *ode.Tx) error {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				o.MustSet("bal", ode.Int(2))
				return tx.Update(oid, o)
			})
		})
		db.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("update with %d constraints", nc), d)
	}
	return nil
}

func runE10() error {
	s := ode.NewSchema()
	item := ode.NewClass("item").
		Field("qty", ode.TInt).
		Field("fires", ode.TInt).
		Trigger(&ode.TriggerDef{
			Name:      "watch",
			Perpetual: true,
			Cond: func(_ ode.Store, o *ode.Object, _ []ode.Value) (bool, error) {
				return o.MustGet("qty").Int() < 0, nil
			},
			Action: func(st ode.Store, o *ode.Object, oid ode.OID, _ []ode.Value) error {
				o.MustSet("fires", ode.Int(o.MustGet("fires").Int()+1))
				o.MustSet("qty", ode.Int(0))
				return st.Update(oid, o)
			},
		}).
		Register(s)
	dir, err := os.MkdirTemp("", "ode-e10")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := ode.Open(filepath.Join(dir, "t.odb"), s, &ode.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer db.Close()
	db.CreateCluster(item)
	var oid ode.OID
	db.RunTx(func(tx *ode.Tx) error {
		o := ode.NewObject(item)
		o.MustSet("qty", ode.Int(1))
		var err error
		oid, err = tx.PNew(item, o)
		return err
	})
	bare, err := timeIt(500, func() error {
		return db.RunTx(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", ode.Int(5))
			return tx.Update(oid, o)
		})
	})
	if err != nil {
		return err
	}
	row("update, no activations", bare)
	db.RunTx(func(tx *ode.Tx) error {
		_, err := db.Triggers().Activate(tx, oid, "watch")
		return err
	})
	quiet, err := timeIt(500, func() error {
		return db.RunTx(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", ode.Int(5))
			return tx.Update(oid, o)
		})
	})
	if err != nil {
		return err
	}
	row("update, armed but quiescent", quiet)
	fire, err := timeIt(500, func() error {
		return db.RunTx(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", ode.Int(-1))
			return tx.Update(oid, o)
		})
	})
	if err != nil {
		return err
	}
	row("update that fires (incl. action tx)", fire)
	return nil
}

func runE11() error {
	_, w := bench.Schema()
	vol, err := timeIt(200000, func() error {
		o := ode.NewObject(w.Stock)
		o.MustSet("qty", ode.Int(1))
		return nil
	})
	if err != nil {
		return err
	}
	ww, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer ww.Close()
	pers, err := timeIt(2000, func() error {
		return ww.DB.RunTx(func(tx *ode.Tx) error {
			o := ode.NewObject(ww.Stock)
			o.MustSet("qty", ode.Int(1))
			_, err := tx.PNew(ww.Stock, o)
			return err
		})
	})
	if err != nil {
		return err
	}
	row("volatile new + set", vol)
	row("pnew + commit (nosync)", pers)
	return nil
}

func runE12() error {
	for _, n := range []int{scale(5000), scale(20000)} {
		dir, err := os.MkdirTemp("", "ode-e12")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "r.odb")
		s, w := bench.Schema()
		db, err := ode.Open(path, s, &ode.Options{NoSync: true})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		w.DB = db
		db.CreateCluster(w.Stock)
		if _, err := w.LoadStock(n); err != nil {
			os.RemoveAll(dir)
			return err
		}
		db.CrashForTesting()
		start := time.Now()
		s2, w2 := bench.Schema()
		db2, err := ode.Open(path, s2, &ode.Options{NoSync: true})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		recov := time.Since(start)
		var count int
		db2.View(func(tx *ode.Tx) error {
			count, err = ode.Forall(tx, w2.Stock).Count()
			return err
		})
		db2.Close()
		os.RemoveAll(dir)
		if count != n {
			return fmt.Errorf("recovered %d of %d", count, n)
		}
		row(fmt.Sprintf("crash with %d objects in WAL", n), "recover+verify", recov)
	}
	return nil
}

// rowE13 prints like row but records the worker count and extras with
// the measurement, so the -json output carries the scaling data.
func rowE13(label string, d time.Duration, nw int, extra map[string]float64) {
	fmt.Printf("  %-28s %12s\n", label, d.Round(time.Microsecond))
	record(label, d, nw, extra)
}

func runE13() error {
	n := scale(50000)
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	oids, err := w.LoadStock(n)
	if err != nil {
		return err
	}

	counts := []int{1}
	for nw := 2; nw < *workers; nw *= 2 {
		counts = append(counts, nw)
	}
	if *workers > 1 {
		counts = append(counts, *workers)
	}

	// Parallel forall: one cluster scan partitioned across workers.
	scan := func(nw int) (time.Duration, error) {
		return timeIt(3, func() error {
			var sum atomic.Int64
			err := w.DB.View(func(tx *ode.Tx) error {
				return ode.Forall(tx, w.Stock).Parallel(nw).
					Do(func(it ode.Item) (bool, error) {
						sum.Add(it.Obj.MustGet("qty").Int())
						return true, nil
					})
			})
			if err != nil {
				return err
			}
			if sum.Load() == 0 {
				return fmt.Errorf("empty scan")
			}
			return nil
		})
	}
	// Untimed warm-up so workers=1 is not charged the cold pool.
	if _, err := scan(1); err != nil {
		return err
	}
	var scanBase time.Duration
	for _, nw := range counts {
		d, err := scan(nw)
		if err != nil {
			return err
		}
		extra := map[string]float64{}
		if nw == 1 {
			scanBase = d
		} else if d > 0 {
			extra["speedup"] = float64(scanBase) / float64(d)
		}
		rowE13(fmt.Sprintf("cluster-scan workers=%d", nw), d, nw, extra)
	}
	if last, err := scan(counts[len(counts)-1]); err == nil && last > 0 {
		fmt.Printf("  (scan speedup at %d workers: %.2fx)\n",
			counts[len(counts)-1], float64(scanBase)/float64(last))
	}

	// Concurrent deref: independent goroutines sharing one read
	// transaction, hitting the sharded pool and decoded-object cache.
	// The hot set fits the default decoded-object cache so the steady
	// state is cache-resident. Reported per-deref across all
	// goroutines (aggregate throughput).
	hot := oids
	if len(hot) > 4000 {
		hot = hot[:4000]
	}
	deref := func(nw int) (time.Duration, error) {
		perG := scale(200000) / nw
		start := time.Now()
		err := w.DB.View(func(tx *ode.Tx) error {
			var wg sync.WaitGroup
			errCh := make(chan error, nw)
			for g := 0; g < nw; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					i := g * 7919
					for k := 0; k < perG; k++ {
						if _, err := tx.Deref(hot[i%len(hot)]); err != nil {
							errCh <- err
							return
						}
						i++
					}
				}(g)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				return err
			default:
				return nil
			}
		})
		if err != nil {
			return 0, err
		}
		return time.Since(start) / time.Duration(nw*perG), nil
	}
	st0 := w.DB.Stats()
	var derefBase time.Duration
	for _, nw := range counts {
		d, err := deref(nw)
		if err != nil {
			return err
		}
		extra := map[string]float64{}
		if nw == 1 {
			derefBase = d
		} else if d > 0 {
			extra["speedup"] = float64(derefBase) / float64(d)
		}
		rowE13(fmt.Sprintf("deref workers=%d", nw), d, nw, extra)
	}
	st := w.DB.Stats()
	if looks := st.Object.CacheHits - st0.Object.CacheHits; looks > 0 {
		hitPct := 100 * float64(looks) /
			float64(looks+st.Object.CacheMisses-st0.Object.CacheMisses)
		fmt.Printf("  (decoded-object cache hit rate during deref: %.1f%%; pool shards: %d)\n",
			hitPct, st.Pool.Shards)
	}
	return nil
}

func rowE14(label string, d time.Duration, extra map[string]float64) {
	fmt.Printf("  %-34s %12s", label, d.Round(time.Microsecond))
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%.0f", k, extra[k])
	}
	fmt.Println()
	record(label, d, 0, extra)
}

func runE14() error {
	slots := *maxTx
	if slots <= 0 {
		slots = 1
	}
	offered := slots * *overload
	if offered <= slots {
		offered = slots + 1
	}
	perG := scale(200)
	if perG < 20 {
		perG = 20
	}

	// burst drives `offered` writer goroutines, each attempting perG
	// single-object updates under the per-transaction -deadline, and
	// classifies every outcome by the typed error taxonomy. The mean
	// latency column is commits only. Each transaction holds its
	// admission slot for `hold` (a slow client) — without that, µs-scale
	// commits recycle the slots so fast the gate never engages.
	const hold = 500 * time.Microsecond
	burst := func(label string, opts *ode.Options) error {
		w, err := bench.NewWorld(opts)
		if err != nil {
			return err
		}
		defer w.Close()
		oids, err := w.LoadStock(64)
		if err != nil {
			return err
		}
		var commits, rejects, timeouts, commitNs atomic.Int64
		var failure atomic.Pointer[error]
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < offered; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < perG; k++ {
					oid := oids[(g*7919+k)%len(oids)]
					ctx, cancel := context.WithTimeout(context.Background(), *deadline)
					t0 := time.Now()
					err := w.DB.RunTxCtx(ctx, func(tx *ode.Tx) error {
						o, err := tx.Deref(oid)
						if err != nil {
							return err
						}
						time.Sleep(hold)
						o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1))
						return tx.Update(oid, o)
					})
					cancel()
					switch {
					case err == nil:
						commits.Add(1)
						commitNs.Add(time.Since(t0).Nanoseconds())
					case errors.Is(err, ode.ErrOverloaded):
						rejects.Add(1)
					case errors.Is(err, ode.ErrTxTimeout), errors.Is(err, ode.ErrCanceled):
						timeouts.Add(1)
					default:
						failure.CompareAndSwap(nil, &err)
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if p := failure.Load(); p != nil {
			return *p
		}
		var mean time.Duration
		if n := commits.Load(); n > 0 {
			mean = time.Duration(commitNs.Load() / n)
		}
		st := w.DB.Stats()
		rowE14(label, mean, map[string]float64{
			"commits":  float64(commits.Load()),
			"rejects":  float64(rejects.Load()),
			"timeouts": float64(timeouts.Load()),
			"waits":    float64(st.Txn.AdmissionWaits),
			"tps":      float64(commits.Load()) / elapsed.Seconds(),
		})
		return nil
	}

	fmt.Printf("  offered load: %d writers x %d tx, slots=%d, deadline=%v\n",
		offered, perG, slots, *deadline)
	if err := burst("ungoverned", &ode.Options{NoSync: true}); err != nil {
		return err
	}
	if err := burst(fmt.Sprintf("governed slots=%d queue=none", slots),
		&ode.Options{NoSync: true, MaxConcurrentTx: slots, MaxQueuedTx: -1}); err != nil {
		return err
	}
	if err := burst(fmt.Sprintf("governed slots=%d queue=%d", slots, 2*slots),
		&ode.Options{NoSync: true, MaxConcurrentTx: slots}); err != nil {
		return err
	}

	// Bounded WAL growth: an append-heavy writer under a 64 KiB soft /
	// 256 KiB hard limit. The soft limit kicks the background
	// checkpointer; the hard limit stalls commits when the writer
	// outruns it. The observed peak must stay near the hard bound.
	const soft, hard = 64 << 10, 256 << 10
	w, err := bench.NewWorld(&ode.Options{
		NoSync: true, WALSoftLimit: soft, WALHardLimit: hard,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	payload := strings.Repeat("x", 1024)
	var peak int64
	n := scale(2000)
	if n < 200 {
		n = 200
	}
	d, err := timeIt(n, func() error {
		err := w.DB.RunTx(func(tx *ode.Tx) error {
			o := ode.NewObject(w.Stock)
			o.MustSet("name", ode.Str(payload))
			o.MustSet("price", ode.Float(1))
			o.MustSet("qty", ode.Int(1))
			o.MustSet("threshold", ode.Int(0))
			_, err := tx.PNew(w.Stock, o)
			return err
		})
		if wb := w.DB.Stats().WALBytes; wb > peak {
			peak = wb
		}
		return err
	})
	if err != nil {
		return err
	}
	// Give the background checkpointer a moment to drain the tail so
	// the auto_ckpt column reflects the kicks the soft limit issued.
	for wait := time.Now(); w.DB.Stats().WALBytes >= soft &&
		time.Since(wait) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	st := w.DB.Stats()
	rowE14(fmt.Sprintf("bounded WAL soft=%dKiB hard=%dKiB", soft>>10, hard>>10), d,
		map[string]float64{
			"commits":     float64(n),
			"peak_wal_kb": float64(peak >> 10),
			"auto_ckpt":   float64(st.WAL.AutoCheckpoints),
			"stalls":      float64(st.WAL.BackpressureStalls),
		})
	if peak > hard+(64<<10) {
		return fmt.Errorf("WAL peaked at %d bytes, far beyond the %d hard limit", peak, hard)
	}
	return nil
}

// runE15 measures the cost of the network hop: the same operations
// embedded (function call into the engine) and remote (wire protocol
// round trip to a server), plus the pipelined variant that amortizes
// round trips. By default the server runs in-process on loopback; with
// -connect it is an external ode-server daemon started with
// -bench-schema (whose class registration matches bench.Schema).
func runE15() error {
	nItems := scale(5000)
	const txBatch = 20
	reps := scale(400)
	if reps < txBatch {
		reps = txBatch
	}

	// Embedded baseline.
	w, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	oids, err := w.LoadStock(nItems)
	if err != nil {
		return err
	}
	newStock := func(c *ode.Class, i int) *ode.Object {
		o := ode.NewObject(c)
		o.MustSet("name", ode.Str(fmt.Sprintf("e15-%07d", i)))
		o.MustSet("price", ode.Float(1))
		o.MustSet("qty", ode.Int(int64(i)))
		o.MustSet("threshold", ode.Int(100))
		return o
	}
	embPNew, err := timeIt(reps/txBatch, func() error {
		return w.DB.RunTx(func(tx *ode.Tx) error {
			for i := 0; i < txBatch; i++ {
				if _, err := tx.PNew(w.Stock, newStock(w.Stock, i)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	var k int
	embDeref, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			for i := 0; i < reps; i++ {
				k = (k + 7919) % len(oids)
				if _, err := tx.Deref(oids[k]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	embDeref /= time.Duration(reps)
	embScan, err := timeIt(3, func() error {
		return w.DB.View(func(tx *ode.Tx) error {
			_, err := ode.Forall(tx, w.Stock).
				SuchThat(ode.Field("qty").Ge(ode.Int(int64(nItems / 2)))).Count()
			return err
		})
	})
	if err != nil {
		return err
	}

	// Remote side: external daemon (-connect) or in-process loopback.
	addr := *connectAddr
	var srv *server.Server
	if addr == "" {
		rw, err := bench.NewWorld(nil)
		if err != nil {
			return err
		}
		defer rw.Close()
		srv = server.New(rw.DB, nil)
		a, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(nil)
		defer srv.Close()
		addr = a.String()
	}
	schema, cw := bench.Schema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	ctx := context.Background()

	var roids []ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		p := tx.Pipeline()
		futs := make([]*client.Future, nItems)
		for i := range futs {
			futs[i] = p.PNew(cw.Stock, newStock(cw.Stock, i))
		}
		if err := p.Flush(); err != nil {
			return err
		}
		roids = roids[:0]
		for _, f := range futs {
			oid, err := f.OID()
			if err != nil {
				return err
			}
			roids = append(roids, oid)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("remote load: %w", err)
	}

	remPNew, err := timeIt(reps/txBatch, func() error {
		return c.RunTx(ctx, func(tx *client.Tx) error {
			for i := 0; i < txBatch; i++ {
				if _, err := tx.PNew(cw.Stock, newStock(cw.Stock, i)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	remPNewPipe, err := timeIt(reps/txBatch, func() error {
		return c.RunTx(ctx, func(tx *client.Tx) error {
			p := tx.Pipeline()
			futs := make([]*client.Future, txBatch)
			for i := range futs {
				futs[i] = p.PNew(cw.Stock, newStock(cw.Stock, i))
			}
			if err := p.Flush(); err != nil {
				return err
			}
			for _, f := range futs {
				if _, err := f.OID(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	remDeref, err := timeIt(3, func() error {
		return c.RunTx(ctx, func(tx *client.Tx) error {
			for i := 0; i < reps; i++ {
				k = (k + 7919) % len(roids)
				if _, err := tx.Deref(roids[k]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	remDeref /= time.Duration(reps)
	remScan, err := timeIt(3, func() error {
		return c.RunTx(ctx, func(tx *client.Tx) error {
			_, err := tx.Count(&client.Scan{
				Class: cw.Stock, Field: "qty", Op: client.CmpGe, Value: ode.Int(int64(nItems / 2)),
			})
			return err
		})
	})
	if err != nil {
		return err
	}

	perOp := func(d time.Duration) time.Duration { return d / txBatch }
	row(fmt.Sprintf("pnew/op (tx of %d)", txBatch), "embedded", perOp(embPNew),
		"remote", perOp(remPNew), "remote pipelined", perOp(remPNewPipe))
	row("deref/op", "embedded", embDeref, "remote", remDeref)
	row(fmt.Sprintf("suchthat scan (n=%d)", nItems), "embedded", embScan, "remote", remScan)
	return nil
}

// rowE16 prints one fast-path row and records it under a stable
// workload name (ci/bench_gate.sh greps these names out of the -json
// output, so they must not drift).
func rowE16(label string, d time.Duration, nw int, extra map[string]float64) {
	fmt.Printf("  %-34s %12s  workers=%d", label, d.Round(time.Microsecond), nw)
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%.2f", k, extra[k])
	}
	fmt.Println()
	record(label, d, nw, extra)
}

// runE16 quantifies the commit and wire fast paths. Part one is group
// commit: transactions of 20 pnews against a sync-on-commit store,
// with N concurrent committers, comparing serialized fsyncs
// (GroupCommit.Disable) against the shared-fsync default — the win
// comes from committers overlapping in one fsync, so it appears only
// under concurrency. Part two is the client object cache on the
// remote deref path: a cache-disabled client (every deref a full
// round trip carrying the image) against a warmed cache (first touch
// per transaction revalidates by tag, repeats are local). The third
// fast path, the low-allocation frame codec, is pinned by
// BenchmarkFrameRoundTrip in internal/wire rather than here.
func runE16() error {
	const txBatch = 20
	txsPerWorker := scale(60)
	if txsPerWorker < 8 {
		txsPerWorker = 8
	}

	// One committer run: nw goroutines, txsPerWorker transactions of
	// txBatch pnews each, fsync on commit. Returns per-transaction
	// time and the grouped-fsync counters.
	commitRun := func(nw int, disable bool) (time.Duration, uint64, uint64, error) {
		w, err := bench.NewWorld(&ode.Options{ // zero NoSync: fsync on every commit
			GroupCommit: ode.GroupCommitOptions{Disable: disable},
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer w.Close()
		errc := make(chan error, nw)
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < nw; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := 0; t < txsPerWorker; t++ {
					err := w.DB.RunTx(func(tx *ode.Tx) error {
						for i := 0; i < txBatch; i++ {
							o := ode.NewObject(w.Stock)
							o.MustSet("name", ode.Str(fmt.Sprintf("e16-%d-%d-%d", g, t, i)))
							o.MustSet("price", ode.Float(1))
							o.MustSet("qty", ode.Int(int64(i)))
							o.MustSet("threshold", ode.Int(0))
							if _, err := tx.PNew(w.Stock, o); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		perTx := time.Since(start) / time.Duration(nw*txsPerWorker)
		close(errc)
		if err := <-errc; err != nil {
			return 0, 0, 0, err
		}
		st := w.DB.Stats()
		return perTx, st.WAL.GroupCommits, st.WAL.GroupCommitSize, nil
	}

	for _, nw := range []int{1, 4, 8} {
		serial, _, _, err := commitRun(nw, true)
		if err != nil {
			return err
		}
		grouped, groups, staged, err := commitRun(nw, false)
		if err != nil {
			return err
		}
		rowE16(fmt.Sprintf("tx%d pnew serial-fsync", txBatch), serial, nw, nil)
		extra := map[string]float64{
			"speedup": float64(serial) / float64(grouped),
		}
		if groups > 0 {
			extra["avg_group"] = float64(staged) / float64(groups)
		}
		rowE16(fmt.Sprintf("tx%d pnew group-commit", txBatch), grouped, nw, extra)
	}

	// Client cache on the remote deref path: in-process loopback
	// server, working set small enough to stay resident, random walk
	// with repeats (the shape navigation produces).
	nItems := scale(2000)
	if nItems < 256 {
		nItems = 256
	}
	reps := scale(2000)
	if reps < 400 {
		reps = 400
	}
	rw, err := bench.NewWorld(nil)
	if err != nil {
		return err
	}
	defer rw.Close()
	oids, err := rw.LoadStock(nItems)
	if err != nil {
		return err
	}
	ws := oids
	if len(ws) > 256 {
		ws = ws[:256]
	}
	srv := server.New(rw.DB, nil)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(nil)
	defer srv.Close()
	schema, _ := bench.Schema()
	ctx := context.Background()

	derefWalk := func(c *client.Client) (time.Duration, error) {
		var k int
		d, err := timeIt(3, func() error {
			return c.RunTx(ctx, func(tx *client.Tx) error {
				for i := 0; i < reps; i++ {
					k = (k + 7919) % len(ws)
					if _, err := tx.Deref(ws[k]); err != nil {
						return err
					}
				}
				return nil
			})
		})
		return d / time.Duration(reps), err
	}

	cold, err := client.Dial(a.String(), schema, &client.Options{CacheSize: -1})
	if err != nil {
		return err
	}
	defer cold.Close()
	coldDeref, err := derefWalk(cold)
	if err != nil {
		return err
	}

	warm, err := client.Dial(a.String(), schema, nil)
	if err != nil {
		return err
	}
	defer warm.Close()
	// Fill pass: every working-set object becomes a cached miss, so
	// the measured transactions see only revalidations and local hits.
	if err := warm.RunTx(ctx, func(tx *client.Tx) error {
		for _, oid := range ws {
			if _, err := tx.Deref(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	warmDeref, err := derefWalk(warm)
	if err != nil {
		return err
	}
	met := warm.CacheMetrics()
	rowE16("remote deref no-cache", coldDeref, 1, nil)
	rowE16("remote deref warm-cache", warmDeref, 1, map[string]float64{
		"speedup": float64(coldDeref) / float64(warmDeref),
		"hits":    float64(met.Hits.Load()),
		"misses":  float64(met.Misses.Load()),
	})
	return nil
}
