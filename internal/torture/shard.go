package torture

// Sharding torture: three in-process shard servers behind a
// client.Sharded router. Rounds drive marker transactions — each
// writes one copy of a marker object per participating shard — through
// the router's single-shard fast path and its cross-shard two-phase
// commit, with a one-shot fault armed on the 2PC WAL sites. Every
// round additionally stages one transaction by hand and kills a
// coordinator or participant at the worst moment: between prepare and
// the decision, or between the coordinator's durable decision and its
// delivery to the rest. The killed shard restarts from disk, in-doubt
// transactions are settled through ResolveInDoubt, and the invariant
// is atomicity: a marker's copy count across all shards is either 0 or
// its participant count — and exactly the participant count for every
// acked commit.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"ode"
	"ode/client"
	"ode/internal/failpoint"
	"ode/internal/server"
)

// shardN is the group width; routing is oid % shardN.
const shardN = 3

// shardRun carries the state of one sharding torture run.
type shardRun struct {
	cfg Config
	rng *rand.Rand

	nodes  [shardN]node // addresses stable across crashes: the router redials them
	router *client.Sharded
	stock  *ode.Class // the router clients' schema instance

	nextMarker int64
	all        map[int64]int // marker id -> participant count (every attempt)
	acked      map[int64]int // marker id -> participant count (acked only)

	res Result
}

// runShard is the driver behind mode "shard".
func runShard(cfg Config) (*Result, error) {
	r := &shardRun{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		all:   make(map[int64]int),
		acked: make(map[int64]int),
	}
	for i := range r.nodes {
		r.nodes[i].path = filepath.Join(cfg.Dir, fmt.Sprintf("shard%d.odb", i))
	}
	err := r.runAll()
	return &r.res, err
}

func (r *shardRun) runAll() error {
	for i := range r.nodes {
		defer r.nodes[i].close()
		if err := r.startShard(i); err != nil {
			return fmt.Errorf("boot shard %d: %w", i, err)
		}
	}
	addrs := make([]string, shardN)
	for i, n := range r.nodes {
		addrs[i] = n.addr
	}
	schema, stock := Schema()
	router, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		return fmt.Errorf("dial router: %w", err)
	}
	defer router.Close()
	r.router, r.stock = router, stock

	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	if r.res.CrossAcked == 0 {
		return fmt.Errorf("no cross-shard commit was ever acked; 2PC traffic is broken")
	}
	return nil
}

// startShard opens (or reopens after a crash) one shard with its shard
// coordinates and serves it on its stable address.
func (r *shardRun) startShard(i int) error {
	n := &r.nodes[i]
	err := n.reopen(&ode.Options{
		PoolPages:  48,
		ShardCount: shardN,
		ShardSlot:  i,
		// Resolution, not the orphan timer, settles every in-doubt
		// transaction in this harness; keep the timer out of the frame.
		PrepareTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	return n.serve(&server.Options{DrainTimeout: 100 * time.Millisecond})
}

// crashShard kills one shard process-style and brings it back from
// disk.
func (r *shardRun) crashShard(i int) error {
	r.nodes[i].crash()
	return r.startShard(i)
}

// markerObj builds one copy of marker id.
func (r *shardRun) markerObj(id int64) *ode.Object {
	o := ode.NewObject(r.stock)
	o.MustSet("name", ode.Str(fmt.Sprintf("m%d", id)))
	o.MustSet("qty", ode.Int(id))
	return o
}

// round: a fault armed on a 2PC site, router traffic, one hand-staged
// kill-window transaction, resolution, then the atomicity sweep.
func (r *shardRun) round(round int) error {
	// Arm one one-shot fault on a 2PC durability site for this round's
	// traffic; which command hits it is the rng's pick.
	site := []string{"txn.prepare_wal", "txn.decide_wal"}[r.rng.Intn(2)]
	failpoint.Arm(site, failpoint.Spec{
		Action:  failpoint.ActError,
		AfterN:  uint64(r.rng.Intn(4)),
		OneShot: true,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.routerOp(ctx)
	}
	if err := r.stagedKillOp(ctx); err != nil {
		return err
	}
	failpoint.DisarmAll()

	if err := r.resolveAll(ctx); err != nil {
		return err
	}
	if err := r.verifyMarkers(); err != nil {
		return err
	}
	r.res.Rounds++
	fmt.Fprintf(r.cfg.Log, "round %d: ops=%d acked=%d uncertain=%d crossacked=%d kills=%d/%d resolved=%d\n",
		round, r.res.Ops, r.res.Acked, r.res.Uncertain, r.res.CrossAcked,
		r.res.CoordKills, r.res.PartKills, r.res.Resolved)
	return nil
}

// routerOp runs one marker transaction through the router: 1..3 copies
// of a fresh marker, one per shard by round-robin placement, so the
// copy count is the participant count.
func (r *shardRun) routerOp(ctx context.Context) {
	id := r.nextMarker
	r.nextMarker++
	parts := 1 + r.rng.Intn(shardN)
	r.res.Ops++
	r.all[id] = parts
	err := r.router.RunTx(ctx, func(tx *client.STx) error {
		for k := 0; k < parts; k++ {
			if _, err := tx.PNew(r.stock, r.markerObj(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		r.acked[id] = parts
		r.res.Acked++
		if parts > 1 {
			r.res.CrossAcked++
		}
		return
	}
	// Failed or in-doubt: the sweep holds it to 0-or-parts copies.
	r.res.Uncertain++
}

// stagedKillOp drives one 2PC by hand so a crash lands exactly inside
// the protocol's windows: after every vote but before the decision, or
// after the coordinator's durable decision but before delivery.
func (r *shardRun) stagedKillOp(ctx context.Context) error {
	id := r.nextMarker
	r.nextMarker++
	k := 2 + r.rng.Intn(shardN-1) // 2..shardN participants
	perm := r.rng.Perm(shardN)[:k]
	parts := append([]int(nil), perm...)
	sort.Ints(parts)
	coord := parts[0] // the lowest participant coordinates
	gid := fmt.Sprintf("s%d-tort-%d", coord, id)
	r.res.Staged++

	// Stage: one copy per participant, then prepare everywhere.
	txs := make(map[int]*client.Tx, k)
	abortAll := func() {
		for _, tx := range txs {
			tx.Abort()
		}
	}
	for _, i := range parts {
		tx, err := r.router.Shard(i).Begin(ctx)
		if err != nil {
			abortAll()
			return nil // shard momentarily unreachable; skip this round's kill
		}
		txs[i] = tx
		if _, err := tx.PNew(r.stock, r.markerObj(id)); err != nil {
			abortAll()
			return nil
		}
	}
	r.all[id] = k
	prepared := make(map[int]bool, k)
	for _, i := range parts {
		if err := txs[i].Prepare(gid); err != nil {
			// A vote failed (possibly the armed fault): global abort.
			// Prepare finishes its tx win or lose, so yes-voters get
			// AbortPrepared and the not-yet-asked get a plain Abort.
			for _, j := range parts {
				switch {
				case prepared[j]:
					_ = r.router.Shard(j).AbortPrepared(ctx, gid)
				case j != i:
					txs[j].Abort()
				}
			}
			return nil
		}
		prepared[i] = true
	}

	// Decide-first half of the matrix: make the commit decision durable
	// on the coordinator, which is the ack point.
	decided := r.rng.Intn(2) == 0
	if decided {
		if _, _, err := r.router.Shard(coord).CommitPrepared(ctx, gid); err != nil {
			decided = false // decision's fate unknown; sweep treats as 0-or-k
			r.res.Uncertain++
		} else {
			r.acked[id] = k
			r.res.Acked++
			r.res.CrossAcked++
		}
	}

	// The kill: a participant or the coordinator, between prepare and
	// (delivery of) the decision.
	victim := parts[r.rng.Intn(len(parts))]
	if victim == coord {
		r.res.CoordKills++
	} else {
		r.res.PartKills++
	}
	return r.crashShard(victim)
}

// resolveAll settles every in-doubt transaction and waits until no
// shard holds prepared state. Transient client failures (a pooled
// connection that died with a killed shard) retry inside the window.
func (r *shardRun) resolveAll(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for {
		n, err := r.router.ResolveInDoubt(ctx)
		r.res.Resolved += n
		lastErr = err
		if err == nil {
			clear := true
			for i := range r.nodes {
				st, serr := r.router.Shard(i).ShardStatus(ctx)
				if serr != nil {
					clear, lastErr = false, serr
					break
				}
				if len(st.Prepared) > 0 {
					clear = false
					break
				}
			}
			if clear {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-doubt transactions never drained (last error: %v)", lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// verifyMarkers is the atomicity sweep: count every marker's copies
// across all shards straight from the embedded stores. Any count
// strictly between 0 and the participant count is a half-applied
// cross-shard transaction; an acked marker short of its full count is
// lost durability.
func (r *shardRun) verifyMarkers() error {
	counts := make(map[int64]int)
	for i := range r.nodes {
		node := &r.nodes[i]
		oids, err := node.db.Manager().ClusterOIDs(node.stock)
		if err != nil {
			return fmt.Errorf("shard %d extent: %w", i, err)
		}
		if err := node.db.View(func(tx *ode.Tx) error {
			for _, oid := range oids {
				o, derr := tx.Deref(oid)
				if derr != nil {
					return derr
				}
				counts[o.MustGet("qty").Int()]++
			}
			return nil
		}); err != nil {
			return fmt.Errorf("shard %d sweep: %w", i, err)
		}
	}
	for id, parts := range r.all {
		if got := counts[id]; got != 0 && got != parts {
			return fmt.Errorf("marker %d half-applied: %d of %d copies present", id, got, parts)
		}
	}
	for id, parts := range r.acked {
		if got := counts[id]; got != parts {
			return fmt.Errorf("acked marker %d lost: %d of %d copies present", id, got, parts)
		}
	}
	return nil
}
