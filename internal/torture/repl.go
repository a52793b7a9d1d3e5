package torture

// Replication torture: a primary with a real wire server and a replica
// following its WAL stream, both in-process so the shared failpoint
// sites fire on whichever node happens to do the I/O. Rounds drive
// randomized traffic on the primary while killing either node at a
// random point (process-style: CrashForTesting, recover from disk,
// rejoin), occasionally wiping the replica outright so the snapshot
// bootstrap path runs too. The invariant under test is byte-level
// convergence: once traffic quiesces and the replica's applied LSN
// matches the primary's, the two databases must hold identical object
// state — every current image, every frozen version, and the secondary
// index — and share one replication identity. The final round promotes
// the replica and verifies it accepts writes.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"ode"
	"ode/internal/failpoint"
	"ode/internal/repl"
	"ode/internal/server"
)

// replRun carries the state of one replication torture run.
type replRun struct {
	cfg Config
	rng *rand.Rand

	primary node // served with a WAL source; its address is stable across crashes
	replica node // never served

	rep     *repl.Replica
	repDown bool // replica stream intentionally not running

	oids []ode.OID // live objects on the primary (rebuilt from the extent after crashes)
	res  Result
}

// replicaOpts keeps reconnect latency negligible against test-scale
// traffic: the primary restarts within milliseconds of a crash.
func replicaOpts() *repl.ReplicaOptions {
	return &repl.ReplicaOptions{
		DialTimeout: 2 * time.Second,
		Backoff:     5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

// runRepl is the driver behind mode "repl".
func runRepl(cfg Config) (*Result, error) {
	r := &replRun{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		primary: node{path: filepath.Join(cfg.Dir, "primary.odb")},
		replica: node{path: filepath.Join(cfg.Dir, "replica.odb")},
	}
	err := r.runAll()
	return &r.res, err
}

func (r *replRun) runAll() error {
	if err := r.startPrimary(); err != nil {
		return fmt.Errorf("boot primary: %w", err)
	}
	defer r.primary.close()
	if err := r.replica.reopen(smallWAL); err != nil {
		return fmt.Errorf("boot replica: %w", err)
	}
	defer func() {
		if r.rep != nil {
			r.rep.Stop()
		}
		r.replica.close()
	}()
	if err := r.startReplica(); err != nil {
		return fmt.Errorf("boot replica stream: %w", err)
	}
	if err := r.seed(); err != nil {
		return fmt.Errorf("seed population: %w", err)
	}

	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		r.res.Rounds++
	}

	// Final act: promote the replica and verify it accepts writes over
	// the full replicated history, at a freshly bumped fencing epoch.
	oldEpoch := r.primary.db.Epoch()
	epoch, err := r.rep.Promote()
	if err != nil {
		return fmt.Errorf("promote replica: %w", err)
	}
	r.rep = nil
	if r.replica.db.ReadOnly() {
		return fmt.Errorf("promoted replica still read-only")
	}
	if epoch <= oldEpoch {
		return fmt.Errorf("promotion epoch %d did not advance past the primary's %d", epoch, oldEpoch)
	}
	tx := r.replica.db.Begin()
	defer tx.Abort()
	o := ode.NewObject(r.replica.stock)
	o.MustSet("name", ode.Str("post-promote"))
	o.MustSet("qty", ode.Int(1))
	if _, err := tx.PNew(r.replica.stock, o); err != nil {
		return fmt.Errorf("write on promoted replica: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("commit on promoted replica: %w", err)
	}
	return nil
}

// startPrimary opens (or reopens after a crash) the primary and serves
// it on the address allocated at first boot, so the replica's
// reconnect loop finds it again.
func (r *replRun) startPrimary() error {
	p := &r.primary
	if err := p.reopen(smallWAL); err != nil {
		return err
	}
	p.src = repl.NewSource(p.db, nil, nil)
	if err := p.serve(&server.Options{Repl: p.src, DrainTimeout: 100 * time.Millisecond}); err != nil {
		return err
	}
	return r.reloadOIDs()
}

// reloadOIDs rebuilds the traffic target list from the primary's
// extent — the durable truth after a crash resolves uncertain commits.
func (r *replRun) reloadOIDs() error {
	oids, err := r.primary.db.Manager().ClusterOIDs(r.primary.stock)
	if err != nil {
		return err
	}
	r.oids = oids
	return nil
}

// crashPrimary kills the primary mid-flight and brings it back from
// disk: server down, source detached, dirty state dropped, recovery.
func (r *replRun) crashPrimary() error {
	r.primary.crash()
	r.res.PrimaryCrashes++
	return r.startPrimary()
}

// startReplica begins (or resumes) following the primary. A dial
// failure retries briefly (the primary may be mid-restart); a resync
// demand wipes the local copy and bootstraps from a snapshot, the same
// recovery ode-server -resync performs.
func (r *replRun) startReplica() error {
	for deadline := time.Now().Add(10 * time.Second); ; {
		rep := repl.NewReplica(r.replica.db, r.primary.addr, nil, replicaOpts())
		err := rep.Start()
		if err == nil {
			r.rep, r.repDown = rep, false
			return nil
		}
		if errors.Is(err, repl.ErrResyncRequired) {
			r.res.Resyncs++
			fmt.Fprintf(r.cfg.Log, "resync demanded; wiping replica\n")
			if err := r.wipeReplica(); err != nil {
				return err
			}
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica subscribe: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wipeReplica stops the replica's stream and discards its store
// entirely; the next subscribe offers a snapshot bootstrap (only an
// empty database may).
func (r *replRun) wipeReplica() error {
	if r.rep != nil {
		r.rep.Stop()
		r.rep = nil
	}
	r.repDown = true
	if err := r.replica.wipe(); err != nil {
		return err
	}
	return r.replica.reopen(smallWAL)
}

// crashReplica kills the replica and recovers its store from disk, but
// leaves the stream down — the caller decides when it rejoins, so
// traffic committed in between exercises incremental catch-up. A
// second crash immediately after recovery (1 in 4) checks recovery
// idempotence on the replica side too.
func (r *replRun) crashReplica() error {
	if r.rep != nil {
		r.rep.Stop()
		r.rep = nil
	}
	r.replica.crash()
	r.res.ReplicaCrashes++
	if err := r.replica.reopen(smallWAL); err != nil {
		return fmt.Errorf("replica recovery: %w", err)
	}
	if r.rng.Intn(4) == 0 {
		r.replica.crash()
		if err := r.replica.reopen(smallWAL); err != nil {
			return fmt.Errorf("replica idempotent re-recovery: %w", err)
		}
	}
	r.repDown = true
	return nil
}

// replicaDied drains a fatal stream exit, classifying it: a resync
// demand or an injected-fault apply error is an expected hazard
// (recover the store, rejoin later); anything else fails the run.
func (r *replRun) replicaDied() error {
	err := r.rep.Err()
	switch {
	case err == nil:
		// Clean stop cannot happen here — only Stop closes the loop
		// without an error, and the harness is the only caller.
		return fmt.Errorf("replica stream exited with no error")
	case errors.Is(err, repl.ErrResyncRequired):
		r.res.Resyncs++
		fmt.Fprintf(r.cfg.Log, "resync demanded mid-stream; wiping replica\n")
		return r.wipeReplica()
	case errors.Is(err, failpoint.ErrInjected):
		// The armed fault fired inside the replica's apply path: its
		// store is suspect, exactly like an errored local commit.
		// Crash-recover it; the stream rejoins at the recovered LSN.
		return r.crashReplica()
	default:
		return fmt.Errorf("replica stream died: %w", err)
	}
}

// seed populates the primary so round one has targets.
func (r *replRun) seed() error {
	for i := 0; i < 30; i++ {
		if err := r.transaction(); err != nil {
			return err
		}
	}
	return nil
}

// round runs one arm/traffic/kill/converge/verify cycle. Kills land at
// a random op index inside the traffic so the rejoining node has a
// real gap to catch up across.
func (r *replRun) round(round int) error {
	site, spec := drawWorkloadFault(r.rng, 40)
	if err := failpoint.Arm(site, spec); err != nil {
		return err
	}
	// kill: 0 primary, 1 replica, 2 replica wipe (snapshot bootstrap),
	// 3+ none (the armed fault may still crash a node on its own).
	kill := r.rng.Intn(6)
	killAt := r.rng.Intn(r.cfg.OpsPerRound)
	fmt.Fprintf(r.cfg.Log, "round %d: arm %s %v kill=%d at op %d\n", round, site, spec, kill, killAt)

	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.res.Ops++
		// A fatal stream exit surfaces asynchronously; check each op.
		if r.rep != nil {
			select {
			case <-r.rep.Done():
				if err := r.replicaDied(); err != nil {
					return err
				}
			default:
			}
		}
		if op == killAt {
			switch kill {
			case 0:
				if err := r.crashPrimary(); err != nil {
					return fmt.Errorf("primary recovery: %w", err)
				}
			case 1:
				if err := r.crashReplica(); err != nil {
					return err
				}
			case 2:
				r.res.Wipes++
				if err := r.wipeReplica(); err != nil {
					return err
				}
			}
		}
		var err error
		switch {
		case r.rng.Intn(10) == 0:
			err = r.primary.db.Checkpoint()
		case r.rng.Intn(8) == 0:
			err = r.replicaProbe()
		default:
			err = r.transaction()
		}
		switch {
		case err == nil:
		case errors.Is(err, failpoint.ErrInjected):
			// The primary erred mid-commit (or mid-checkpoint): crash it
			// and recover, as a real deployment's restart would. The
			// extent reload resolves any uncertain commit either way.
			if err := r.crashPrimary(); err != nil {
				return fmt.Errorf("primary recovery after fault: %w", err)
			}
		default:
			return fmt.Errorf("unexpected engine error: %w", err)
		}
	}
	failpoint.DisarmAll()

	// Converge: quiesce traffic, rejoin the replica if it is down, and
	// wait until its applied position reaches the primary's.
	if r.repDown {
		if err := r.startReplica(); err != nil {
			return err
		}
	}
	if err := r.waitConverged(); err != nil {
		return err
	}

	// Verify: identical identity and byte-level state.
	pdb, rdb := r.primary.db, r.replica.db
	if pid, rid := pdb.ReplicationID(), rdb.ReplicationID(); pid != rid {
		return fmt.Errorf("replication id diverged: primary %q, replica %q", pid, rid)
	}
	pd, err := r.primary.digest()
	if err != nil {
		return fmt.Errorf("primary digest: %w", err)
	}
	rd, err := r.replica.digest()
	if err != nil {
		return fmt.Errorf("replica digest: %w", err)
	}
	if pd != rd {
		return fmt.Errorf("state diverged at LSN %d: primary %s, replica %s", pdb.LSN(), pd, rd)
	}
	fmt.Fprintf(r.cfg.Log, "round %d: converged at LSN %d digest %s\n", round, pdb.LSN(), pd[:12])
	return nil
}

// waitConverged blocks until the replica has applied the primary's
// last committed batch, recovering the replica through any fatal
// stream exit (resync demands, late fault damage) on the way.
func (r *replRun) waitConverged() error {
	target := r.primary.db.AppliedLSN()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if r.replica.db.AppliedLSN() >= target {
			return nil
		}
		if r.rep == nil || r.repDown {
			if err := r.startReplica(); err != nil {
				return err
			}
		}
		select {
		case <-r.rep.Done():
			if err := r.replicaDied(); err != nil {
				return err
			}
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at LSN %d, primary at %d", r.replica.db.AppliedLSN(), target)
		}
	}
}

// transaction runs 1–3 random operations in one commit on the primary.
// Targets come from the best-effort oid list; one that turns out dead
// (an uncertain commit resolved the other way) is dropped and skipped.
func (r *replRun) transaction() error {
	tx := r.primary.db.Begin()
	defer tx.Abort()
	stock := r.primary.stock
	var created []ode.OID
	var deleted []ode.OID
	nops := 1 + r.rng.Intn(3)
	for i := 0; i < nops; i++ {
		oid := r.pickOID()
		var err error
		switch k := r.rng.Intn(10); {
		case k <= 2 || oid == ode.NilOID:
			o := ode.NewObject(stock)
			o.MustSet("name", ode.Str(fmt.Sprintf("item-%d", r.rng.Intn(1_000_000))))
			o.MustSet("qty", ode.Int(int64(r.rng.Intn(1000))))
			var newOID ode.OID
			if newOID, err = tx.PNew(stock, o); err == nil {
				created = append(created, newOID)
			}
		case k == 3 && len(r.oids) > 10:
			if err = tx.PDelete(oid); err == nil {
				deleted = append(deleted, oid)
			}
		case k == 4 || k == 5:
			_, err = tx.NewVersion(oid)
		case k == 6:
			var vs []uint32
			if vs, err = tx.Versions(oid); err == nil && len(vs) > 0 {
				err = tx.DeleteVersion(ode.VRef{OID: oid, Version: vs[r.rng.Intn(len(vs))]})
			}
		default:
			var o *ode.Object
			if o, err = tx.Deref(oid); err == nil {
				o.MustSet("qty", ode.Int(int64(r.rng.Intn(1000))))
				err = tx.Update(oid, o)
			}
		}
		if errors.Is(err, ode.ErrNoObject) {
			r.dropOID(oid)
			continue
		}
		if err != nil {
			r.res.Aborts++
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		r.res.Aborts++
		return err
	}
	r.res.Commits++
	r.oids = append(r.oids, created...)
	for _, oid := range deleted {
		r.dropOID(oid)
	}
	return nil
}

func (r *replRun) pickOID() ode.OID {
	if len(r.oids) == 0 {
		return ode.NilOID
	}
	return r.oids[r.rng.Intn(len(r.oids))]
}

func (r *replRun) dropOID(oid ode.OID) {
	for i, o := range r.oids {
		if o == oid {
			r.oids = append(r.oids[:i], r.oids[i+1:]...)
			return
		}
	}
}

// replicaProbe exercises the replica's serving surface mid-stream: a
// write must fail with the typed read-only error, and a read of a
// recent primary object must either succeed or be cleanly absent
// (replication lag) — never error otherwise.
func (r *replRun) replicaProbe() error {
	if r.repDown || r.rep == nil {
		return nil
	}
	tx := r.replica.db.Begin()
	o := ode.NewObject(r.replica.stock)
	o.MustSet("name", ode.Str("probe"))
	o.MustSet("qty", ode.Int(1))
	_, err := tx.PNew(r.replica.stock, o)
	tx.Abort()
	if !errors.Is(err, ode.ErrReadOnly) {
		return fmt.Errorf("replica write = %v, want ode.ErrReadOnly", err)
	}
	oid := r.pickOID()
	if oid == ode.NilOID {
		return nil
	}
	err = r.replica.db.View(func(tx *ode.Tx) error {
		_, derr := tx.Deref(oid)
		return derr
	})
	switch {
	case err == nil || errors.Is(err, ode.ErrNoObject):
		return nil
	case errors.Is(err, failpoint.ErrInjected):
		// The armed fault fired on the replica's read path; restart it
		// the way a real deployment would.
		return r.crashReplica()
	default:
		return fmt.Errorf("replica read @%d: %w", oid, err)
	}
}
