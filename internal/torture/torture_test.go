package torture

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/internal/failpoint"
)

// TestTortureFixedSeeds is the deterministic tier of the torture suite:
// three fixed seeds that must pass on every machine and in CI.
func TestTortureFixedSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      6,
				OpsPerRound: 20,
				Dir:         t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d commits=%d aborts=%d faults=%d recoveries=%d resurrected=%d fired=%v",
				seed, res.Rounds, res.Ops, res.Commits, res.Aborts, res.Faults, res.Recoveries, res.Resurrected, res.SitesFired)
			if res.Commits == 0 {
				t.Error("run committed nothing; workload is broken")
			}
			if res.Recoveries < res.Rounds {
				t.Errorf("recoveries %d < rounds %d; crashes are not happening", res.Recoveries, res.Rounds)
			}
		})
	}
}

// TestTortureCancelFixedSeeds runs the governance traffic mode: the
// store opens with admission control and WAL bounds, and rounds mix
// deadline-killed transactions, lock-wait timeouts, and overload bursts
// into the usual fault-injected traffic. A transaction killed by its
// context must be a clean abort — the model advances only on commits,
// and every recovery must still verify.
func TestTortureCancelFixedSeeds(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      6,
				OpsPerRound: 25,
				Dir:         t.TempDir(),
				Mode:        "cancel",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d commits=%d aborts=%d kills=%d overloads=%d faults=%d recoveries=%d resurrected=%d fired=%v",
				seed, res.Rounds, res.Ops, res.Commits, res.Aborts, res.TxKills, res.Overloads, res.Faults, res.Recoveries, res.Resurrected, res.SitesFired)
			if res.Commits == 0 {
				t.Error("run committed nothing; workload is broken")
			}
			if res.TxKills == 0 {
				t.Error("no transaction was killed by deadline/cancellation; cancel traffic is broken")
			}
		})
	}
}

// TestTortureCompactFixedSeeds runs the online-compaction mode: rounds
// mix delete-heavy churn with DB.Compact passes, and the armed fault
// can land on the compaction failpoints so the crash interrupts a pass
// with records half-relocated. Recovery must restore a consistent
// store (extents, indexes, per-object state, heap-chain space
// accounting), and the run's final clean pass must verify too.
func TestTortureCompactFixedSeeds(t *testing.T) {
	for _, seed := range []int64{9, 21} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      6,
				OpsPerRound: 25,
				Dir:         t.TempDir(),
				Mode:        "compact",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d commits=%d aborts=%d compactions=%d reclaimed=%d faults=%d recoveries=%d fired=%v",
				seed, res.Rounds, res.Ops, res.Commits, res.Aborts, res.Compactions, res.Reclaimed, res.Faults, res.Recoveries, res.SitesFired)
			if res.Commits == 0 {
				t.Error("run committed nothing; workload is broken")
			}
			if res.Compactions == 0 {
				t.Error("no compaction pass completed; compact traffic is broken")
			}
		})
	}
}

// TestTortureReplFixedSeeds runs the replication torture: a primary
// with a wire server and a replica following its WAL stream, random
// node kills and wipes under the usual armed failpoints, and a
// byte-level convergence check each round (see repl.go).
func TestTortureReplFixedSeeds(t *testing.T) {
	for _, seed := range []int64{5, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      6,
				OpsPerRound: 25,
				Dir:         t.TempDir(),
				Mode:        "repl",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d commits=%d aborts=%d pkills=%d rkills=%d wipes=%d resyncs=%d faults=%d fired=%v",
				seed, res.Rounds, res.Ops, res.Commits, res.Aborts, res.PrimaryCrashes, res.ReplicaCrashes, res.Wipes, res.Resyncs, res.Faults, res.SitesFired)
			if res.Commits == 0 {
				t.Error("run committed nothing; workload is broken")
			}
			if res.PrimaryCrashes+res.ReplicaCrashes+res.Wipes == 0 {
				t.Error("no node was ever killed; kill schedule is broken")
			}
		})
	}
}

// TestTortureNetChaosFixedSeeds runs the network-chaos torture: three
// full nodes with automatic failover, meshed through netchaos proxy
// links, with partitions, kills, resets, latency, and asymmetric
// stalls injected per round while client traffic flows. The run checks
// at-most-one-writable-epoch continuously and, per round, convergence
// plus zero acked-write loss (see netchaos.go).
func TestTortureNetChaosFixedSeeds(t *testing.T) {
	for _, seed := range []int64{17, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      5,
				OpsPerRound: 18,
				Dir:         t.TempDir(),
				Log:         testWriter{t},
				Mode:        "netchaos",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d acked=%d uncertain=%d reads=%d readfails=%d stale=%d promotions=%d resyncs=%d parts=%d kills=%d resets=%d stalls=%d delays=%d epoch=%d",
				seed, res.Rounds, res.Ops, res.Acked, res.Uncertain, res.Reads, res.ReadFails, res.StaleReads,
				res.Promotions, res.Resyncs, res.Partitions, res.NodeKills, res.Resets, res.Stalls, res.Delays, res.FinalEpoch)
			if res.Acked == 0 {
				t.Error("no write was ever acknowledged; traffic is broken")
			}
			if res.Promotions == 0 {
				t.Error("no promotion ever happened; even the bootstrap election should promote")
			}
		})
	}
}

// TestTortureShardFixedSeeds runs the sharding torture: three shard
// servers behind a client.Sharded router, cross-shard 2PC traffic with
// faults armed on the prepare/decide WAL sites, and every round a
// hand-staged transaction killed between prepare and the decision (or
// between the decision and its delivery) on a coordinator or a
// participant. The atomicity sweep requires each marker either fully
// present or fully absent, and every acked commit fully present (see
// shard.go).
func TestTortureShardFixedSeeds(t *testing.T) {
	for _, seed := range []int64{19, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{
				Seed:        seed,
				Rounds:      5,
				OpsPerRound: 15,
				Dir:         t.TempDir(),
				Log:         testWriter{t},
				Mode:        "shard",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: rounds=%d ops=%d acked=%d uncertain=%d crossacked=%d staged=%d ckills=%d pkills=%d resolved=%d faults=%d fired=%v",
				seed, res.Rounds, res.Ops, res.Acked, res.Uncertain, res.CrossAcked, res.Staged,
				res.CoordKills, res.PartKills, res.Resolved, res.Faults, res.SitesFired)
			if res.Acked == 0 {
				t.Error("no transaction was ever acked; traffic is broken")
			}
			if res.CoordKills+res.PartKills == 0 {
				t.Error("no shard was ever killed; kill schedule is broken")
			}
			if res.Resolved == 0 {
				t.Error("no in-doubt transaction was ever resolved; the kill windows are missing the protocol")
			}
		})
	}
}

// TestRunRejectsUnknownMode: a mistyped mode is an error, never a
// silent run of some other harness.
func TestRunRejectsUnknownMode(t *testing.T) {
	if _, err := Run(Config{Mode: "bogus", Dir: t.TempDir()}); err == nil {
		t.Fatal(`Run(Mode: "bogus") = nil error, want unknown mode`)
	}
}

// TestOpenExistingRejectsLostDDL: after setup, an open that finds the
// stockitem cluster or its qty index missing is an error, not a quiet
// rebuild by open's idempotent DDL.
func TestOpenExistingRejectsLostDDL(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cluster bool
		index   bool
	}{
		{"no-cluster", false, false},
		{"no-index", true, false},
		{"intact", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &run{node: node{path: t.TempDir() + "/t.odb"}, opts: &ode.Options{PoolPages: 48}}
			schema, stock := Schema()
			db, err := ode.Open(r.path, schema, r.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cluster {
				if err := db.CreateCluster(stock); err != nil {
					t.Fatal(err)
				}
			}
			if tc.index {
				if err := db.CreateIndex(stock, "qty"); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			err = r.openExisting()
			if tc.index {
				if err != nil {
					t.Fatalf("openExisting on an intact store: %v", err)
				}
				if err := r.close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, errLostDDL) {
				t.Fatalf("openExisting = %v, want errLostDDL", err)
			}
			if r.db != nil {
				t.Fatal("openExisting left the store open after reporting lost DDL")
			}
		})
	}
}

// TestTortureCI is the environment-driven entry point used by the CI
// torture matrix. TORTURE_SEED is a number, or the string RANDOM for a
// time-derived seed that is logged so a failure can be reproduced:
//
//	TORTURE_SEED=12345 go test -run TestTortureCI -v ./internal/torture
//
// TORTURE_ROUNDS, TORTURE_OPS, and TORTURE_DIR tune the run, and
// TORTURE_MODE is Config.Mode: "" (single node), cancel, compact, repl,
// netchaos or shard. A malformed number or an unknown mode fails the
// test. With TORTURE_DIR set, the store files survive the test for
// artifact upload on failure.
func TestTortureCI(t *testing.T) {
	seedEnv := os.Getenv("TORTURE_SEED")
	if seedEnv == "" {
		t.Skip("TORTURE_SEED not set (CI entry point; use TestTortureFixedSeeds locally)")
	}
	var seed int64
	if strings.EqualFold(seedEnv, "RANDOM") {
		seed = time.Now().UnixNano()
	} else {
		var err error
		seed, err = strconv.ParseInt(seedEnv, 10, 64)
		if err != nil {
			t.Fatalf("bad TORTURE_SEED %q: %v", seedEnv, err)
		}
	}
	cfg := Config{Seed: seed, Dir: os.Getenv("TORTURE_DIR"), Log: testWriter{t}, Mode: os.Getenv("TORTURE_MODE")}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for env, field := range map[string]*int{"TORTURE_ROUNDS": &cfg.Rounds, "TORTURE_OPS": &cfg.OpsPerRound} {
		if v := os.Getenv(env); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad %s %q: %v", env, v, err)
			}
			*field = n
		}
	}
	t.Logf("torture seed %d mode=%s (reproduce: TORTURE_SEED=%d TORTURE_MODE=%s go test -run TestTortureCI -v ./internal/torture)",
		seed, cfg.Mode, seed, cfg.Mode)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("torture failed (reproduce with TORTURE_SEED=%d TORTURE_MODE=%s): %v", seed, cfg.Mode, err)
	}
	t.Logf("result: %+v", *res)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// tornFlushAttempt drives the exact sequence the double-write buffer
// exists for: dirty pages, a checkpoint whose (afterN+1)-th in-place
// page write is torn mid-write, then a crash. With the buffer on,
// recovery must restore the staged image and the store reopens intact.
// With the buffer skipped (Options.UnsafeSkipDoubleWrite — a
// deliberately introduced durability bug), the torn page survives to
// disk and recovery must *detect* it as a checksum failure.
//
// Which page the (afterN+1)-th write lands on depends on the flush
// order of the dirty-frame set (map iteration), so a single attempt may
// tear a freshly allocated page that recovery can legitimately rebuild
// from the WAL. The callers therefore sweep afterN across the first few
// writes: some attempt is guaranteed to hit a page that was durable at
// the previous checkpoint (catalog, directory, or old heap), which a
// store without torn-page protection cannot survive silently.
//
// fired reports whether the fault triggered at all (false once afterN
// exceeds the number of page writes the checkpoint issues).
func tornFlushAttempt(t *testing.T, skipDoubleWrite bool, afterN int) (fired bool, reopenErr error) {
	t.Helper()
	defer failpoint.DisarmAll()
	dir := t.TempDir()
	path := dir + "/torn.odb"

	schema, stock := Schema()
	db, err := ode.Open(path, schema, &ode.Options{PoolPages: 48, UnsafeSkipDoubleWrite: skipDoubleWrite})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	// Records are padded past the torn-write sector size (512 B) so that
	// rewriting one changes page bytes beyond the first sector. A tear
	// whose delta fits entirely inside the surviving prefix would be
	// undetectable — and genuinely harmless, since nothing was lost.
	pad := func(tag string, i int) string {
		return fmt.Sprintf("%s-%03d-%s", tag, i, strings.Repeat(tag[:1], 680))
	}
	var oids []ode.OID
	for i := 0; i < 30; i++ {
		tx := db.Begin()
		o := ode.NewObject(stock)
		o.MustSet("name", ode.Str(pad("old", i)))
		o.MustSet("qty", ode.Int(int64(i)))
		oid, err := tx.PNew(stock, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty every object so the next checkpoint rewrites heap pages.
	// The replacement name has the same length but different bytes
	// throughout, so every record's change spans multiple sectors.
	for i, oid := range oids {
		tx := db.Begin()
		o, err := tx.Deref(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("name", ode.Str(pad("new", i)))
		o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1000))
		if err := tx.Update(oid, o); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the (afterN+1)-th in-place page write of the checkpoint
	// flush, then crash.
	failpoint.Arm("storage.page_write", failpoint.Spec{
		Action:  failpoint.ActTornWrite,
		AfterN:  uint64(afterN),
		OneShot: true,
	})
	err = db.Checkpoint()
	failpoint.DisarmAll()
	if err == nil {
		// afterN exceeded the checkpoint's page writes: nothing torn.
		db.CrashForTesting()
		return false, nil
	}
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("checkpoint error = %v, want injected fault", err)
	}
	db.CrashForTesting()

	schema2, stock2 := Schema()
	db2, err := ode.Open(path, schema2, &ode.Options{PoolPages: 48})
	if err != nil {
		return true, err
	}
	defer db2.Close()
	// Recovery succeeded: every committed update must be present.
	for i, oid := range oids {
		var qty int64
		var name string
		err := db2.View(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			qty = o.MustGet("qty").Int()
			name = o.MustGet("name").Str()
			return nil
		})
		if err != nil {
			t.Fatalf("object %d lost after recovery: %v", i, err)
		}
		if want := int64(i) + 1000; qty != want {
			t.Fatalf("object %d qty = %d after recovery, want %d", i, qty, want)
		}
		if want := pad("new", i); name != want {
			t.Fatalf("object %d name corrupt after recovery", i)
		}
	}
	exts, err := db2.Manager().ClusterOIDs(stock2)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != len(oids) {
		t.Fatalf("extent holds %d objects after recovery, want %d", len(exts), len(oids))
	}
	return true, nil
}

// tornSweepMax bounds the afterN sweep: the scenario's checkpoint
// flushes well under this many pages, so the sweep always covers every
// write position (and stops early once the fault no longer fires).
const tornSweepMax = 16

// TestTornPageFencedByDoubleWrite is the control: with the double-write
// buffer in place, a torn checkpoint write is invisible no matter which
// page it lands on — recovery restores the staged image and nothing is
// lost.
func TestTornPageFencedByDoubleWrite(t *testing.T) {
	attempts := 0
	for k := 0; k < tornSweepMax; k++ {
		fired, err := tornFlushAttempt(t, false, k)
		if !fired {
			break
		}
		attempts++
		if err != nil {
			t.Fatalf("write %d: reopen after torn checkpoint write failed despite double-write protection: %v", k, err)
		}
	}
	if attempts == 0 {
		t.Fatal("fault never fired; checkpoint issued no page writes")
	}
	t.Logf("tore each of the checkpoint's %d page writes; recovery survived all", attempts)
}

// TestSkippedDoubleWriteCaught asserts the suite detects the durability
// bug: skipping the double-write buffer lets a torn page reach disk,
// and for at least one write position (a page that was durable at the
// previous checkpoint) recovery must refuse the store with a checksum
// error rather than silently serving corrupt data. Tears that land on
// freshly allocated pages are legitimately absorbed by WAL replay, so
// those attempts are allowed to recover.
func TestSkippedDoubleWriteCaught(t *testing.T) {
	attempts, caught := 0, 0
	for k := 0; k < tornSweepMax; k++ {
		fired, err := tornFlushAttempt(t, true, k)
		if !fired {
			break
		}
		attempts++
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("write %d: reopen error = %v, want a checksum detection", k, err)
		}
		caught++
	}
	if attempts == 0 {
		t.Fatal("fault never fired; checkpoint issued no page writes")
	}
	if caught == 0 {
		t.Fatalf("recovery accepted all %d torn-page variants written without double-write protection", attempts)
	}
	t.Logf("%d/%d torn writes detected as checksum failures", caught, attempts)
}
