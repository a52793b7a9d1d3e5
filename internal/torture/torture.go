// Package torture is the crash-recovery torture harness: it drives
// randomized object traffic (pnew, update, pdelete, versions, trigger
// activations, checkpoints) against a real database, injects faults at
// the I/O failpoints of storage/WAL/txn (internal/failpoint), simulates
// a process crash at the injected failure, reopens the store from disk,
// and verifies that recovery preserved every invariant the engine
// promises:
//
//   - committed transactions are durable, aborted ones invisible;
//   - a transaction whose commit *errored* resolved atomically — the
//     database holds either its complete before-state or its complete
//     after-state, never a mix (a commit record may be durable even
//     though Commit returned an error, e.g. a failed fsync after the
//     batch landed);
//   - no torn page escapes the double-write buffer;
//   - WAL replay is idempotent (a second crash immediately after
//     recovery recovers to the same state);
//   - cluster extents, secondary indexes, version sets, trigger
//     activations, and the decoded-object cache agree with an
//     independently tracked model after every recovery.
//
// Everything is driven by one seeded PRNG, so a failing run is
// reproducible from its seed (see docs/TESTING.md). The *fault
// schedule* (which site is armed, with what trigger, in which round)
// is fully determined by the seed; which page or transaction happens
// to hit an armed site at its Nth traversal can vary run to run with
// Go's map iteration order, so invariants are checked outcome-blind:
// every possible resolution of a round must verify.
package torture

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ode"
	"ode/internal/failpoint"
)

// Config parameterizes a torture run.
type Config struct {
	// Seed drives every random decision of the run.
	Seed int64
	// Rounds is the number of crash/recover/verify cycles (0: the mode's
	// default).
	Rounds int
	// OpsPerRound bounds the operations attempted per round (0: the
	// mode's default).
	OpsPerRound int
	// Dir is the directory holding the stores' files. It must exist;
	// the harness never deletes it (CI uploads it as an artifact on
	// failure).
	Dir string
	// Log, if non-nil, receives progress lines.
	Log io.Writer
	// Mode selects the deployment shape and traffic under test: "" is
	// one embedded store under armed I/O failpoints; "cancel" adds
	// governance traffic against an admission-controlled, WAL-bounded
	// store (deadlines, cancellation, lock-wait timeouts, overload
	// bursts; a killed or rejected transaction must be a clean abort);
	// "compact" adds delete-heavy churn and online DB.Compact passes
	// with faults armed mid-pass (recovery also checks the heap chain's
	// space accounting); "repl", "netchaos" and "shard" run the drivers
	// in repl.go, netchaos.go and shard.go.
	Mode string
}

// modes maps each Config.Mode to its driver and default round shape.
var modes = map[string]struct {
	rounds, ops int
	run         func(Config) (*Result, error)
}{
	"":         {8, 25, runSingle},
	"cancel":   {8, 25, runSingle},
	"compact":  {8, 25, runSingle},
	"repl":     {8, 30, runRepl},
	"netchaos": {8, 20, runNetChaos},
	"shard":    {6, 20, runShard},
}

// Result summarizes a completed run. Each mode fills the counters of
// its group; the others stay zero.
type Result struct {
	Rounds     int
	Ops        int
	Faults     uint64 // injected faults that actually fired
	SitesFired map[string]uint64

	// Single-node modes and repl.
	Commits int
	Aborts  int

	// Single-node modes.
	Recoveries  int // recovery opens (incl. idempotence re-crashes)
	Resurrected int // errored commits that recovery resolved as committed
	TxKills     int // transactions killed by deadline/cancellation (clean aborts)
	Overloads   int // admission rejections (ErrOverloaded)
	Compactions int // DB.Compact passes that completed
	Reclaimed   int // heap pages compaction returned to the free list

	// repl.
	PrimaryCrashes int
	ReplicaCrashes int
	Wipes          int // deliberate replica wipes (forced snapshot bootstrap)

	// repl and netchaos.
	Resyncs int // wipe-and-rebootstrap cycles (resync demands, self-healing)

	// netchaos and shard.
	Acked     int // commits acknowledged to the client (verified never lost)
	Uncertain int // failures with an unknown outcome (may or may not have landed)

	// netchaos.
	Reads      int
	ReadFails  int // reads lost to transport noise mid-fault (never to absence)
	StaleReads int // floored reads answered "no object" mid-fault (see readAcked)
	Promotions int
	Partitions int
	NodeKills  int
	Resets     int
	Stalls     int
	Delays     int
	FinalEpoch uint64

	// shard.
	CrossAcked int // acked commits that spanned shards (took 2PC)
	Staged     int // hand-staged kill-window transactions
	CoordKills int // shards killed while coordinating
	PartKills  int // shards killed while a mere participant
	Resolved   int // in-doubt transactions settled by ResolveInDoubt
}

// Run executes one torture run in cfg.Mode and returns its summary; any
// invariant violation (or unexpected engine error) is returned as an
// error that names the seed for reproduction.
func Run(cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("torture: Config.Dir is required")
	}
	m, ok := modes[cfg.Mode]
	if !ok {
		return nil, fmt.Errorf("torture: unknown mode %q", cfg.Mode)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = m.rounds
	}
	if cfg.OpsPerRound <= 0 {
		cfg.OpsPerRound = m.ops
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	firesBefore := failpoint.FireCounts()
	defer failpoint.DisarmAll()

	res, err := m.run(cfg)
	res.SitesFired = make(map[string]uint64)
	for site, n := range failpoint.FireCounts() {
		if d := n - firesBefore[site]; d > 0 {
			res.SitesFired[site] = d
			res.Faults += d
		}
	}
	if err != nil {
		name := "torture"
		if cfg.Mode != "" {
			name += "(" + cfg.Mode + ")"
		}
		return res, fmt.Errorf("%s: seed %d: %w (stores kept at %s)", name, cfg.Seed, err, cfg.Dir)
	}
	return res, nil
}

// snap is the model's view of one object.
type snap struct {
	live   bool
	name   string
	qty    int64
	cur    uint32
	frozen map[uint32]int64 // frozen version -> qty at freeze
	acts   int              // armed trigger activations
}

func (s *snap) clone() *snap {
	c := *s
	c.frozen = make(map[uint32]int64, len(s.frozen))
	for v, q := range s.frozen {
		c.frozen[v] = q
	}
	return &c
}

func (s *snap) equal(o *snap) bool {
	if s.live != o.live {
		return false
	}
	if !s.live {
		return true
	}
	return s.name == o.name && s.qty == o.qty && s.cur == o.cur && s.acts == o.acts &&
		maps.Equal(s.frozen, o.frozen)
}

// pending records one transaction's planned effect, kept until the
// commit outcome is known so an errored commit can be resolved against
// the database after recovery.
type pending struct {
	before map[ode.OID]*snap
	after  map[ode.OID]*snap
}

// run carries the state of one single-node torture run.
type run struct {
	node
	cfg   Config
	opts  *ode.Options
	rng   *rand.Rand
	model map[ode.OID]*snap
	dead  []ode.OID // recently deleted oids (ErrNoObject checks)
	res   Result
}

// workloadFaults are the sites armed during traffic rounds, with the
// actions that make sense at each.
var workloadFaults = []struct {
	site    string
	actions []failpoint.Action
}{
	{"storage.page_read", []failpoint.Action{failpoint.ActError}},
	{"storage.page_write", []failpoint.Action{failpoint.ActTornWrite, failpoint.ActShortWrite, failpoint.ActError}},
	{"storage.sync", []failpoint.Action{failpoint.ActError}},
	{"storage.dw_stage", []failpoint.Action{failpoint.ActShortWrite, failpoint.ActError}},
	{"storage.dw_clear", []failpoint.Action{failpoint.ActError}},
	{"storage.pool_evict", []failpoint.Action{failpoint.ActError}},
	{"wal.append", []failpoint.Action{failpoint.ActShortWrite, failpoint.ActTornWrite, failpoint.ActError}},
	{"wal.fsync", []failpoint.Action{failpoint.ActError}},
	{"wal.truncate", []failpoint.Action{failpoint.ActError}},
	{"txn.commit_wal", []failpoint.Action{failpoint.ActError}},
	{"txn.commit_apply", []failpoint.Action{failpoint.ActError}},
}

// drawWorkloadFault picks a workload site and a one-shot spec for it
// that fires at one of its first maxAfter traversals; the one-shot
// disarms the site as it fires.
func drawWorkloadFault(rng *rand.Rand, maxAfter int) (string, failpoint.Spec) {
	wf := workloadFaults[rng.Intn(len(workloadFaults))]
	return wf.site, failpoint.Spec{
		Action:  wf.actions[rng.Intn(len(wf.actions))],
		AfterN:  uint64(rng.Intn(maxAfter)),
		Seed:    rng.Int63(),
		OneShot: true,
	}
}

// recoveryFaults are the sites armed while reopening after a crash.
var recoveryFaults = []string{"wal.replay", "storage.page_read"}

// compactFaults are the compaction-path sites a Compact-mode round can
// arm instead of a workload site, so the crash lands mid-pass with
// records half-relocated and pages half-drained.
var compactFaults = []string{"storage.compact_move", "storage.compact_free"}

// Schema builds the torture schema: a stock item with a non-negativity
// constraint and a quiescent "sentinel" trigger (its condition can
// never hold while the constraint is enforced, so activations are pure
// durable state).
func Schema() (*ode.Schema, *ode.Class) {
	schema := ode.NewSchema()
	stock := ode.NewClass("stockitem").
		Field("name", ode.TString).
		Field("qty", ode.TInt).
		Constraint("nonneg-qty", "qty >= 0", func(_ ode.Store, o *ode.Object) (bool, error) {
			return o.MustGet("qty").Int() >= 0, nil
		}).
		Trigger(&ode.TriggerDef{
			Name:      "sentinel",
			Perpetual: true,
			Src:       "qty < 0 ==> unreachable",
			Cond: func(_ ode.Store, self *ode.Object, _ []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < 0, nil
			},
			Action: func(_ ode.Store, _ *ode.Object, _ ode.OID, _ []ode.Value) error {
				return fmt.Errorf("torture: sentinel trigger fired (constraint breached)")
			},
		}).
		Register(schema)
	return schema, stock
}

// runSingle is the single-node driver behind modes "", "cancel" and
// "compact".
func runSingle(cfg Config) (*Result, error) {
	r := &run{
		node:  node{path: filepath.Join(cfg.Dir, "torture.odb")},
		cfg:   cfg,
		opts:  &ode.Options{PoolPages: 48},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		model: make(map[ode.OID]*snap),
	}
	if cfg.Mode == "cancel" {
		// Tight governance: few admission slots with no wait queue (so
		// overload bursts reject), and WAL bounds small enough that the
		// background checkpointer and commit backpressure run constantly
		// under the armed failpoints.
		r.opts.MaxConcurrentTx = 3
		r.opts.MaxQueuedTx = -1
		r.opts.WALSoftLimit = 8 << 10
		r.opts.WALHardLimit = 32 << 10
		r.opts.CloseTimeout = 2 * time.Second
	}
	err := r.runAll()
	return &r.res, err
}

func (r *run) runAll() error {
	if err := r.setup(); err != nil {
		return err
	}
	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		r.res.Rounds++
	}
	// Clean shutdown, clean reopen, final verify.
	failpoint.DisarmAll()
	if err := r.close(); err != nil {
		return fmt.Errorf("final close: %w", err)
	}
	if err := r.openExisting(); err != nil {
		return fmt.Errorf("final reopen: %w", err)
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	// Compact mode: one clean pass over everything the run's crashed
	// passes left behind (leaked free pages, stale duplicate records)
	// must succeed and leave the store verifiable.
	if r.cfg.Mode == "compact" {
		if err := r.compactPass(); err != nil {
			return fmt.Errorf("final compact: %w", err)
		}
		if err := r.verify(); err != nil {
			return fmt.Errorf("verify after final compact: %w", err)
		}
	}
	return r.close()
}

// setup creates the store with its DDL and a seed population, then
// checkpoints so every round starts from a durable base.
func (r *run) setup() error {
	if _, err := r.open(r.opts); err != nil {
		return fmt.Errorf("setup open: %w", err)
	}
	for i := 0; i < 40; i++ {
		p := r.plan(1)
		r.planNew(p)
		if err := r.execute(p); err != nil {
			return fmt.Errorf("setup seed object: %w", err)
		}
		r.commitModel(p)
	}
	if err := r.db.Checkpoint(); err != nil {
		return fmt.Errorf("setup checkpoint: %w", err)
	}
	return nil
}

// errLostDDL fails an open after setup that had to redo setup's DDL.
var errLostDDL = errors.New("recovery lost the stockitem cluster or qty index")

// openExisting opens the store after setup, without retry. Setup made
// the cluster and index durable, so an open that has to create either
// means recovery lost them; that is reported, not quietly rebuilt.
func (r *run) openExisting() error {
	created, err := r.open(r.opts)
	if err == nil && created {
		r.crash()
		err = errLostDDL
	}
	return err
}

// round runs one arm/traffic/crash/recover/verify cycle.
func (r *run) round(round int) error {
	// Arm one workload fault. AfterN may exceed the traffic so some
	// rounds crash with no fault at all (a plain kill).
	site, spec := drawWorkloadFault(r.rng, 30)
	// Compact mode draws extra randomness only behind the mode check, so
	// plain-mode runs keep their historical sequences and old seeds stay
	// reproducible. Compaction sites fire early (few records move per
	// pass) and only support injected errors.
	if r.cfg.Mode == "compact" && r.rng.Intn(2) == 0 {
		site = compactFaults[r.rng.Intn(len(compactFaults))]
		spec.Action = failpoint.ActError
		spec.AfterN = uint64(r.rng.Intn(4))
	}
	if err := failpoint.Arm(site, spec); err != nil {
		return err
	}
	fmt.Fprintf(r.cfg.Log, "round %d: arm %s %v\n", round, site, spec)

	var uncertain []*pending
	injected := false
	for op := 0; op < r.cfg.OpsPerRound && !injected; op++ {
		r.res.Ops++
		var err error
		var p *pending
		// The Cancel arms short-circuit before consuming randomness, so
		// plain-mode runs draw exactly the sequence they always did and
		// old seeds stay reproducible.
		switch {
		case r.rng.Intn(15) == 0:
			err = r.db.Checkpoint()
		case r.rng.Intn(10) == 0:
			err = r.deliberateAbort()
		case r.cfg.Mode == "cancel" && r.rng.Intn(4) == 0:
			p, err = r.governedTransaction()
		case r.cfg.Mode == "cancel" && r.rng.Intn(6) == 0:
			err = r.lockTimeoutPair()
		case r.cfg.Mode == "cancel" && r.rng.Intn(6) == 0:
			err = r.overloadBurst()
		case r.cfg.Mode == "compact" && r.rng.Intn(5) == 0:
			err = r.compactPass()
		case r.cfg.Mode == "compact" && r.rng.Intn(3) == 0:
			p, err = r.churnBurst()
		default:
			p, err = r.transaction()
		}
		switch {
		case err == nil:
			// committed (or completed); model already advanced.
		case errors.Is(err, failpoint.ErrInjected):
			injected = true
			if p != nil {
				// The commit errored but its record may be durable;
				// resolve against the database after recovery.
				uncertain = append(uncertain, p)
			}
		default:
			return fmt.Errorf("unexpected engine error: %w", err)
		}
	}
	failpoint.DisarmAll()

	// Crash: drop all dirty in-memory state, keep only what disk holds.
	r.crash()

	// Sometimes fail the recovery itself partway, then recover for real.
	if r.rng.Intn(4) == 0 {
		site := recoveryFaults[r.rng.Intn(len(recoveryFaults))]
		failpoint.Arm(site, failpoint.Spec{
			Action:  failpoint.ActError,
			AfterN:  uint64(r.rng.Intn(8)),
			OneShot: true,
		})
		err := r.openExisting()
		failpoint.DisarmAll()
		if err == nil {
			r.res.Recoveries++
			// Open survived (the one-shot may not have fired, or fired
			// on a tolerated path); crash again so the real recovery
			// below starts from disk.
			r.crash()
		} else if !errors.Is(err, failpoint.ErrInjected) {
			return fmt.Errorf("recovery-phase fault: unexpected error: %w", err)
		}
		fmt.Fprintf(r.cfg.Log, "round %d: recovery fault at %s (open err: %v)\n", round, site, err)
	}

	if err := r.openExisting(); err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	r.res.Recoveries++

	if err := r.resolve(uncertain); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("verify after recovery: %w", err)
	}

	// Idempotence: sometimes crash again immediately (recovery wrote
	// nothing the engine cannot re-derive) and verify the reopen too.
	if r.rng.Intn(4) == 0 {
		r.crash()
		if err := r.openExisting(); err != nil {
			return fmt.Errorf("idempotence reopen: %w", err)
		}
		r.res.Recoveries++
		if err := r.verify(); err != nil {
			return fmt.Errorf("verify after idempotent re-recovery: %w", err)
		}
	}
	return nil
}

// plan starts a pending transaction plan over n distinct target oids
// (targets are chosen by the individual plan* ops).
func (r *run) plan(n int) *pending {
	return &pending{
		before: make(map[ode.OID]*snap, n),
		after:  make(map[ode.OID]*snap, n),
	}
}

// pickLive returns a random live oid not already in p, or NilOID.
func (r *run) pickLive(p *pending) ode.OID {
	oids := make([]ode.OID, 0, len(r.model))
	for oid := range r.model {
		if _, taken := p.after[oid]; !taken {
			oids = append(oids, oid)
		}
	}
	if len(oids) == 0 {
		return ode.NilOID
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids[r.rng.Intn(len(oids))]
}

// The plan* helpers decide an operation's effect in model terms; the
// oid for planNew is not known until execution, so its snap is keyed
// by NilOID and rewritten in execute.

func (r *run) planNew(p *pending) {
	name := fmt.Sprintf("item-%d", r.rng.Intn(1_000_000))
	if r.cfg.Mode == "compact" {
		// Pad records so the heap spans many pages and delete bursts
		// leave genuinely sparse ones (the pad is outside the rng, so
		// other modes' draw sequences are untouched).
		name += strings.Repeat(".", 300)
	}
	s := &snap{
		live:   true,
		name:   name,
		qty:    int64(r.rng.Intn(1000)),
		frozen: map[uint32]int64{},
	}
	p.before[ode.NilOID] = &snap{live: false}
	p.after[ode.NilOID] = s
}

func (r *run) planUpdate(p *pending, oid ode.OID) {
	p.before[oid] = r.model[oid].clone()
	a := r.model[oid].clone()
	a.qty = int64(r.rng.Intn(1000))
	p.after[oid] = a
}

func (r *run) planDelete(p *pending, oid ode.OID) {
	p.before[oid] = r.model[oid].clone()
	p.after[oid] = &snap{live: false}
}

func (r *run) planNewVersion(p *pending, oid ode.OID) {
	p.before[oid] = r.model[oid].clone()
	a := r.model[oid].clone()
	a.frozen[a.cur] = a.qty
	a.cur++
	p.after[oid] = a
}

func (r *run) planDeleteVersion(p *pending, oid ode.OID, ver uint32) {
	p.before[oid] = r.model[oid].clone()
	a := r.model[oid].clone()
	delete(a.frozen, ver)
	p.after[oid] = a
}

func (r *run) planActivate(p *pending, oid ode.OID) {
	p.before[oid] = r.model[oid].clone()
	a := r.model[oid].clone()
	a.acts++
	p.after[oid] = a
}

// transaction plans and executes one randomized transaction of 1–3
// operations on distinct objects. On success the model is advanced; on
// error the returned pending lets the caller resolve the outcome.
func (r *run) transaction() (*pending, error) {
	p := r.plan(3)
	r.planOps(p, 1+r.rng.Intn(3))
	if len(p.after) == 0 {
		return nil, nil // degenerate plan; skip
	}
	if err := r.execute(p); err != nil {
		return p, err
	}
	r.commitModel(p)
	return nil, nil
}

// planOps fills p with nops random operation plans.
func (r *run) planOps(p *pending, nops int) {
	for i := 0; i < nops; i++ {
		switch r.rng.Intn(10) {
		case 0, 1, 2:
			if _, dup := p.after[ode.NilOID]; dup {
				continue // one pnew per transaction (NilOID-keyed plan)
			}
			r.planNew(p)
		case 3:
			if oid := r.pickLive(p); oid != ode.NilOID && len(r.model) > 10 {
				r.planDelete(p, oid)
			}
		case 4, 5:
			if oid := r.pickLive(p); oid != ode.NilOID {
				r.planNewVersion(p, oid)
			}
		case 6:
			if oid := r.pickLive(p); oid != ode.NilOID {
				if vs := r.model[oid].frozen; len(vs) > 0 {
					vers := make([]uint32, 0, len(vs))
					for v := range vs {
						vers = append(vers, v)
					}
					sort.Slice(vers, func(i, j int) bool { return vers[i] < vers[j] })
					r.planDeleteVersion(p, oid, vers[r.rng.Intn(len(vers))])
				}
			}
		case 7:
			if oid := r.pickLive(p); oid != ode.NilOID {
				r.planActivate(p, oid)
			}
		default:
			if oid := r.pickLive(p); oid != ode.NilOID {
				r.planUpdate(p, oid)
			}
		}
	}
}

// governedTransaction plans a normal transaction but executes it under
// a context that is pre-canceled, carries a deadline tight enough to
// expire anywhere inside the transaction, or is generous enough to
// commit. A context kill must be a clean abort (the model is untouched);
// only an injected fault leaves the outcome uncertain.
func (r *run) governedTransaction() (*pending, error) {
	p := r.plan(3)
	r.planOps(p, 1+r.rng.Intn(3))
	if len(p.after) == 0 {
		return nil, nil
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	switch r.rng.Intn(3) {
	case 0: // already dead: nothing may commit
		ctx, cancel = context.WithCancel(ctx)
		cancel()
	case 1: // races the transaction's own operations
		ctx, cancel = context.WithTimeout(ctx, time.Duration(r.rng.Intn(2000))*time.Microsecond)
	default: // normally commits
		ctx, cancel = context.WithTimeout(ctx, time.Second)
	}
	defer cancel()
	err := r.executeCtx(ctx, p)
	switch {
	case err == nil:
		r.commitModel(p)
		return nil, nil
	case errors.Is(err, ode.ErrCanceled) || errors.Is(err, ode.ErrTxTimeout) || errors.Is(err, ode.ErrOverloaded):
		// Governance kill: clean abort, nothing durable, model untouched.
		r.res.TxKills++
		return nil, nil
	default:
		return p, err // injected faults resolve via the uncertain path
	}
}

// lockTimeoutPair pins an object under an exclusive lock (a sleeping
// peer) and asserts that a second transaction with a short deadline
// times out on the wait and resolves as a clean abort.
func (r *run) lockTimeoutPair() error {
	p := r.plan(1)
	oid := r.pickLive(p)
	if oid == ode.NilOID {
		return nil
	}
	holder := r.db.Begin()
	defer holder.Abort() // the holder never commits: model untouched
	o, err := holder.Deref(oid)
	if err != nil {
		return err
	}
	o.MustSet("qty", ode.Int(o.MustGet("qty").Int()))
	if err := holder.Update(oid, o); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+r.rng.Intn(10))*time.Millisecond)
	defer cancel()
	victim := r.db.BeginCtx(ctx)
	defer victim.Abort()
	switch _, verr := victim.Deref(oid); {
	case errors.Is(verr, ode.ErrTxTimeout):
		r.res.TxKills++
		return nil
	case verr == nil:
		return fmt.Errorf("lock-wait victim read @%d through the holder's X lock", oid)
	default:
		return verr
	}
}

// overloadBurst fires more concurrent read transactions than the
// admission gate admits. Every outcome must be typed — success,
// ErrOverloaded, a context kill, or an injected fault — and reads are
// state-neutral, so the model is untouched regardless of scheduling.
func (r *run) overloadBurst() error {
	p := r.plan(1)
	oid := r.pickLive(p)
	if oid == ode.NilOID {
		return nil
	}
	const burst = 8
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			errs <- r.db.View(func(tx *ode.Tx) error {
				_, err := tx.Deref(oid)
				if err == nil {
					// Hold the admission slot long enough for the burst
					// to overlap.
					time.Sleep(2 * time.Millisecond)
				}
				return err
			})
		}()
	}
	var firstErr error
	for i := 0; i < burst; i++ {
		switch err := <-errs; {
		case err == nil:
		case errors.Is(err, ode.ErrOverloaded):
			r.res.Overloads++
		case errors.Is(err, ode.ErrTxTimeout) || errors.Is(err, ode.ErrCanceled):
			r.res.TxKills++
		default:
			if firstErr == nil {
				firstErr = err // injected faults end the round; reads are state-neutral
			}
		}
	}
	return firstErr
}

// churnBurst commits one delete-heavy transaction (or a replenishing
// pnew while the population is low), leaving sparse heap pages for the
// next compaction pass to drain.
func (r *run) churnBurst() (*pending, error) {
	p := r.plan(8)
	if len(r.model) > 20 {
		// Delete a contiguous run of oids: allocation order tracks page
		// locality, so clustered deletes drain individual pages below
		// the compaction threshold instead of thinning all of them.
		oids := make([]ode.OID, 0, len(r.model))
		for oid := range r.model {
			oids = append(oids, oid)
		}
		sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
		n := 4 + r.rng.Intn(4)
		start := r.rng.Intn(len(oids))
		for i := 0; i < n && start+i < len(oids); i++ {
			r.planDelete(p, oids[start+i])
		}
	} else {
		r.planNew(p)
	}
	if len(p.after) == 0 {
		return nil, nil
	}
	if err := r.execute(p); err != nil {
		return p, err
	}
	r.commitModel(p)
	return nil, nil
}

// compactPass runs one online compaction pass. Compaction relocates
// records without changing them, so the model is untouched either way:
// a completed pass counts, an injected fault ends the round (the crash
// lands mid-pass and recovery must restore a consistent heap).
func (r *run) compactPass() error {
	stats, err := r.db.Compact()
	if err != nil {
		return err
	}
	r.res.Compactions++
	r.res.Reclaimed += stats.PagesReclaimed
	return nil
}

// execute applies the plan through one database transaction.
func (r *run) execute(p *pending) error {
	return r.executeCtx(context.Background(), p)
}

// executeCtx applies the plan through one transaction begun under ctx.
func (r *run) executeCtx(ctx context.Context, p *pending) error {
	targets := keys(p.after) // stable copy: the pnew case re-keys the maps
	tx := r.db.BeginCtx(ctx)
	defer tx.Abort() // no-op after commit
	for _, oid := range targets {
		a, b := p.after[oid], p.before[oid]
		switch {
		case oid == ode.NilOID: // pnew
			o := ode.NewObject(r.stock)
			o.MustSet("name", ode.Str(a.name))
			o.MustSet("qty", ode.Int(a.qty))
			newOID, err := tx.PNew(r.stock, o)
			if err != nil {
				return err
			}
			// Re-key the plan under the real oid.
			delete(p.after, ode.NilOID)
			delete(p.before, ode.NilOID)
			p.after[newOID] = a
			p.before[newOID] = b
		case !a.live: // pdelete
			if err := tx.PDelete(oid); err != nil {
				return err
			}
		case a.acts != b.acts: // activate
			if _, err := r.db.Triggers().Activate(tx, oid, "sentinel"); err != nil {
				return err
			}
		case a.cur != b.cur: // newversion
			if _, err := tx.NewVersion(oid); err != nil {
				return err
			}
		case len(a.frozen) != len(b.frozen): // deleteversion
			for v := range b.frozen {
				if _, kept := a.frozen[v]; !kept {
					if err := tx.DeleteVersion(ode.VRef{OID: oid, Version: v}); err != nil {
						return err
					}
				}
			}
		default: // update
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", ode.Int(a.qty))
			if err := tx.Update(oid, o); err != nil {
				return err
			}
		}
	}
	if err := tx.Commit(); err != nil {
		r.res.Aborts++
		return err
	}
	r.res.Commits++
	return nil
}

// commitModel folds a successfully committed plan into the model.
func (r *run) commitModel(p *pending) {
	for oid, a := range p.after {
		if a.live {
			r.model[oid] = a
		} else {
			delete(r.model, oid)
			r.dead = append(r.dead, oid)
			if len(r.dead) > 50 {
				r.dead = r.dead[len(r.dead)-50:]
			}
		}
	}
}

// deliberateAbort runs a transaction that must fail the nonneg-qty
// constraint, exercising abort invisibility.
func (r *run) deliberateAbort() error {
	p := r.plan(1)
	oid := r.pickLive(p)
	if oid == ode.NilOID {
		return nil
	}
	tx := r.db.Begin()
	defer tx.Abort()
	o, err := tx.Deref(oid)
	if err != nil {
		return err
	}
	o.MustSet("qty", ode.Int(-1))
	if err := tx.Update(oid, o); err != nil {
		return err
	}
	err = tx.Commit()
	if errors.Is(err, ode.ErrConstraintViolation) {
		r.res.Aborts++
		return nil // the expected outcome; model untouched
	}
	if err == nil {
		return fmt.Errorf("constraint-violating commit succeeded on @%d", oid)
	}
	return err
}

// readState reads one object's full durable state from the database.
func (r *run) readState(oid ode.OID) (*snap, error) {
	s := &snap{frozen: map[uint32]int64{}}
	err := r.db.View(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if errors.Is(err, ode.ErrNoObject) {
			return nil // s.live stays false
		}
		if err != nil {
			return err
		}
		s.live = true
		s.name = o.MustGet("name").Str()
		s.qty = o.MustGet("qty").Int()
		if s.cur, err = tx.CurrentVersion(oid); err != nil {
			return err
		}
		vs, err := tx.Versions(oid)
		if err != nil {
			return err
		}
		for _, v := range vs {
			ov, err := tx.DerefVersion(ode.VRef{OID: oid, Version: v})
			if err != nil {
				return err
			}
			s.frozen[v] = ov.MustGet("qty").Int()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.live {
		s.acts = len(r.db.Triggers().ActiveOn(oid))
	}
	return s, nil
}

// resolve decides the outcome of transactions whose Commit errored
// around the crash: after recovery the database must hold either the
// complete before-state or the complete after-state of each.
func (r *run) resolve(uncertain []*pending) error {
	for _, p := range uncertain {
		okAfter, okBefore := true, true
		for oid := range p.after {
			if oid == ode.NilOID {
				continue // pnew that never allocated: nothing durable
			}
			got, err := r.readState(oid)
			if err != nil {
				return fmt.Errorf("resolve @%d: %w", oid, err)
			}
			if !got.equal(p.after[oid]) {
				okAfter = false
			}
			if !got.equal(p.before[oid]) {
				okBefore = false
			}
		}
		switch {
		case okBefore:
			// Fully rolled back (or the plan was state-neutral).
		case okAfter:
			// The commit record made it to disk before the crash:
			// recovery resurrected the transaction. Fold it in.
			r.commitModel(p)
			r.res.Resurrected++
		default:
			return fmt.Errorf("atomicity violation: errored commit is partially applied (touched %v)", keys(p.after))
		}
	}
	return nil
}

func keys(m map[ode.OID]*snap) []ode.OID {
	out := make([]ode.OID, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// verify checks every engine invariant against the model.
func (r *run) verify() error {
	// Cluster extent == model's live set.
	extent, err := r.db.Manager().ClusterOIDs(r.stock)
	if err != nil {
		return fmt.Errorf("extent scan: %w", err)
	}
	if err := sameOIDSet(extent, r.model, "extent"); err != nil {
		return err
	}
	// Secondary index agrees with the extent.
	indexed, err := r.db.Manager().IndexOIDs(r.stock, "qty", ode.Null, ode.Null)
	if err != nil {
		return fmt.Errorf("index scan: %w", err)
	}
	if err := sameOIDSet(indexed, r.model, "index(qty)"); err != nil {
		return err
	}
	// Per-object state, twice: the second read exercises the decoded-
	// object cache, which must agree with the first (coherence after
	// recovery).
	for oid, want := range r.model {
		for pass := 0; pass < 2; pass++ {
			got, err := r.readState(oid)
			if err != nil {
				return fmt.Errorf("read @%d (pass %d): %w", oid, pass, err)
			}
			if !got.equal(want) {
				return fmt.Errorf("object @%d (pass %d) diverged: disk %+v, model %+v", oid, pass, got, want)
			}
			if got.qty < 0 {
				return fmt.Errorf("object @%d violates nonneg-qty: %d", oid, got.qty)
			}
		}
	}
	// Compact mode: the heap chain's space accounting must be sound — a
	// page freed mid-crash may leak (harmless; a later pass reclaims it)
	// but must never appear twice in the chain or point past the file.
	if r.cfg.Mode == "compact" {
		pages, err := r.db.Manager().HeapPages()
		if err != nil {
			return fmt.Errorf("heap chain walk: %w", err)
		}
		total := r.db.Stats().Pages
		seen := make(map[uint32]bool, len(pages))
		for _, id := range pages {
			if seen[uint32(id)] {
				return fmt.Errorf("heap chain holds page %d twice", id)
			}
			seen[uint32(id)] = true
			if uint32(id) >= total {
				return fmt.Errorf("heap chain page %d past file end (%d pages)", id, total)
			}
		}
	}
	// Deleted objects stay deleted.
	for _, oid := range r.dead {
		if _, stillLive := r.model[oid]; stillLive {
			continue // oid space is reused only for uncommitted allocations
		}
		err := r.db.View(func(tx *ode.Tx) error {
			_, derr := tx.Deref(oid)
			return derr
		})
		if !errors.Is(err, ode.ErrNoObject) {
			return fmt.Errorf("deleted object @%d resurrected (err %v)", oid, err)
		}
	}
	return nil
}

func sameOIDSet(got []ode.OID, model map[ode.OID]*snap, what string) error {
	if len(got) != len(model) {
		return fmt.Errorf("%s holds %d objects, model %d", what, len(got), len(model))
	}
	for _, oid := range got {
		if _, ok := model[oid]; !ok {
			return fmt.Errorf("%s holds unknown object @%d", what, oid)
		}
	}
	return nil
}
