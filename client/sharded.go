package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ode"
	"ode/internal/obs"
	"ode/internal/txn"
)

// Sharded routes traffic across N independent ode-server shards by
// OID: every object lives on exactly one shard (oid % N — the shards
// allocate disjoint, congruent OID streams when opened with matching
// ShardSlot/ShardCount options), point operations go straight to the
// owning shard, and scans fan out over all shards concurrently with
// their per-shard OID-ordered streams merged back into one global
// OID-ordered stream.
//
// Transactions that touch one shard commit on that shard's ordinary
// fast path. Transactions that touch several commit through two-phase
// commit: the router prepares the write set on every participant
// (each vote durable before it is given), makes the commit decision
// durable on the coordinator shard — the lowest participating index,
// encoded in the transaction's gid — and then delivers it to the
// rest. A participant that cannot be reached after the decision stays
// in doubt, holding its locks, until redelivery or ResolveInDoubt;
// the commit still acks, because the decision is already durable.
// Protocol, failure matrix, and runbook: docs/SHARDING.md.
//
// A Sharded is safe for concurrent use; each STx is not (like Tx).
type Sharded struct {
	shards  []*Client
	rr      atomic.Uint64 // round-robin PNew placement
	gidSeq  atomic.Uint64
	gidBase string // random per-router token making gids collision-free
	met     ShardMetrics
}

// ErrInDoubt marks a cross-shard commit whose decision round trip to
// the coordinator failed at the transport level: the commit record may
// or may not be durable there, so the router can neither ack nor abort.
// The transaction holds its locks on every participant until
// ResolveInDoubt (or a redelivered decision) settles it against the
// coordinator's state. Deliberately not retryable — rerunning the
// function could double-apply a transaction that did commit.
var ErrInDoubt = errors.New("client: cross-shard transaction in doubt")

// decisionRetries bounds redelivery attempts for one decision round
// trip (idempotent, so retrying is always safe).
const decisionRetries = 2

// NewSharded assembles a router over already-dialed shard clients, in
// shard order: shards[i] must be the server opened with ShardSlot i
// and ShardCount len(shards). The Sharded owns the clients from here:
// Close closes all of them.
func NewSharded(shards ...*Client) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("client: sharded router needs at least one shard")
	}
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("client: gid entropy: %w", err)
	}
	return &Sharded{shards: shards, gidBase: hex.EncodeToString(b[:])}, nil
}

// DialSharded dials every shard address, in shard order, and assembles
// a router over them. The schema must be registered identically on
// every shard (and match the servers').
func DialSharded(addrs []string, schema *ode.Schema, opts *Options) (*Sharded, error) {
	shards := make([]*Client, 0, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a, schema, opts)
		if err != nil {
			for _, p := range shards {
				p.Close()
			}
			return nil, fmt.Errorf("shard %d (%s): %w", i, a, err)
		}
		shards = append(shards, c)
	}
	return NewSharded(shards...)
}

// NumShards returns the shard count N; OIDs route as oid % N.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the client for shard i (for direct, router-bypassing
// access: metrics, promotion, debugging).
func (s *Sharded) Shard(i int) *Client { return s.shards[i] }

// ShardFor returns the index of the shard owning oid.
func (s *Sharded) ShardFor(oid ode.OID) int {
	return int(uint64(oid) % uint64(len(s.shards)))
}

// ShardMetrics returns the router's counters; Metrics.Attach-style
// registration via ShardMetrics.Attach.
func (s *Sharded) ShardMetrics() *ShardMetrics { return &s.met }

// Close closes every shard's client.
func (s *Sharded) Close() error {
	var err error
	for _, c := range s.shards {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// mintGID builds a canonical global transaction id: "s<coord>-" names
// the coordinator shard (the engine parses it to decide which node may
// presume abort at timeout), the rest makes it unique.
func (s *Sharded) mintGID(coord int) string {
	return fmt.Sprintf("s%d-%s-%d", coord, s.gidBase, s.gidSeq.Add(1))
}

// Begin opens a sharded transaction. Per-shard transactions open
// lazily on first touch, so no round trips happen here and a
// transaction that stays on one shard costs exactly what a direct
// client transaction costs.
func (s *Sharded) Begin(ctx context.Context) *STx {
	return &STx{s: s, ctx: ctx, txs: make([]*Tx, len(s.shards))}
}

// RunTx runs fn in a sharded transaction, committing on nil return
// (two-phase when several shards were written) and aborting otherwise,
// under the shared retry policy. An ErrInDoubt commit is not retried.
func (s *Sharded) RunTx(ctx context.Context, fn func(tx *STx) error) error {
	return runWithRetry(ctx, func() error {
		tx := s.Begin(ctx)
		defer tx.Abort() // a no-op after Commit; also ends it when fn panics
		if err := fn(tx); err != nil {
			return err
		}
		return tx.Commit()
	}, ode.IsRetryable)
}

// View runs fn read-only: begin, fn, abort everywhere.
func (s *Sharded) View(ctx context.Context, fn func(tx *STx) error) error {
	tx := s.Begin(ctx)
	defer tx.Abort()
	return fn(tx)
}

// Status polls every shard's shard-status. The slice is indexed by
// shard; an unreachable shard leaves a nil entry and the first such
// failure is returned alongside the partial result.
func (s *Sharded) Status(ctx context.Context) ([]*ShardStatus, error) {
	out := make([]*ShardStatus, len(s.shards))
	var firstErr error
	for i, c := range s.shards {
		st, err := c.ShardStatus(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
			continue
		}
		out[i] = st
	}
	return out, firstErr
}

// ResolveInDoubt sweeps every shard's in-doubt transactions and
// settles each against its coordinator shard's verdict: committed
// there means deliver commit everywhere, anything else — aborted,
// unknown (presumed abort), or still prepared with its router gone —
// means deliver abort. Only run it when no coordinator for the
// in-doubt gids is still active; a live router racing a resolver could
// see its decision contradicted. Returns the number of transactions
// fully resolved; gids this router cannot parse a coordinator from are
// left alone.
func (s *Sharded) ResolveInDoubt(ctx context.Context) (int, error) {
	holders := make(map[string][]int)
	var firstErr error
	for i, c := range s.shards {
		st, err := c.ShardStatus(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
			continue
		}
		for _, p := range st.Prepared {
			holders[p.GID] = append(holders[p.GID], i)
		}
	}
	gids := make([]string, 0, len(holders))
	for gid := range holders {
		gids = append(gids, gid)
	}
	sort.Strings(gids)

	resolved := 0
	for _, gid := range gids {
		coord, ok := txn.GIDCoordinator(gid)
		if !ok || coord >= len(s.shards) {
			continue // a foreign coordinator owns this gid
		}
		status, err := s.shards[coord].TxStatus(ctx, gid)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("resolve %s: coordinator status: %w", gid, err)
			}
			continue
		}
		commit := status == ode.TxStatusCommitted
		allOK := true
		for _, i := range holders[gid] {
			var derr error
			if commit {
				_, _, derr = s.shards[i].CommitPrepared(ctx, gid)
			} else {
				derr = s.shards[i].AbortPrepared(ctx, gid)
			}
			if derr != nil {
				allOK = false
				if firstErr == nil {
					firstErr = fmt.Errorf("resolve %s on shard %d: %w", gid, i, derr)
				}
			}
		}
		if allOK {
			resolved++
			s.met.Resolved.Inc()
		}
	}
	return resolved, firstErr
}

// STx is a sharded transaction: a lazily-opened transaction per shard,
// all sharing the begin context. Point operations route by OID, scans
// fan out. Like Tx, an STx is single-goroutine.
type STx struct {
	s    *Sharded
	ctx  context.Context
	txs  []*Tx // indexed by shard; nil until first touched
	done bool
}

// shardTx returns the open transaction on shard i, beginning one on
// first touch.
func (t *STx) shardTx(i int) (*Tx, error) {
	if t.done {
		return nil, ode.ErrTxDone
	}
	if t.txs[i] == nil {
		tx, err := t.s.shards[i].Begin(t.ctx)
		if err != nil {
			return nil, err
		}
		t.txs[i] = tx
	}
	return t.txs[i], nil
}

// participants returns the shard indexes this transaction has touched.
func (t *STx) participants() []int {
	var parts []int
	for i, tx := range t.txs {
		if tx != nil {
			parts = append(parts, i)
		}
	}
	return parts
}

// Abort aborts the transaction on every touched shard; safe to call
// after failure or repeatedly.
func (t *STx) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, tx := range t.txs {
		if tx != nil {
			tx.Abort()
		}
	}
}

// Commit commits the transaction. One touched shard commits on that
// shard's ordinary path; several commit atomically through two-phase
// commit. On a nil return every participant has either committed or
// holds a durably decided commit it will apply on redelivery; on
// ErrInDoubt see the type's comment; on any other error the
// transaction has aborted everywhere.
func (t *STx) Commit() error {
	if t.done {
		return ode.ErrTxDone
	}
	t.done = true
	parts := t.participants()
	switch len(parts) {
	case 0:
		return nil
	case 1:
		t.s.met.SingleCommits.Inc()
		return t.txs[parts[0]].Commit()
	}
	return t.s.commit2PC(t.ctx, t.txs, parts)
}

// commit2PC runs the coordinator role of two-phase commit over the
// participating shards. parts is sorted ascending (participants walks
// the shard array in order); the lowest index is the coordinator.
func (s *Sharded) commit2PC(ctx context.Context, txs []*Tx, parts []int) error {
	coord := parts[0]
	gid := s.mintGID(coord)

	// Phase 1: prepare every participant concurrently. Each nil return
	// is a durable yes vote; each failure has already aborted locally.
	perrs := make([]error, len(parts))
	var wg sync.WaitGroup
	for k, i := range parts {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			perrs[k] = txs[i].Prepare(gid)
		}(k, i)
	}
	wg.Wait()
	var prepErr error
	for _, err := range perrs { // lowest participating index wins
		if err != nil {
			prepErr = err
			break
		}
	}
	if prepErr != nil {
		// Global abort, delivered to every participant — including the
		// ones whose Prepare failed: a transport-level failure (request
		// processed, response lost) may have prepared server-side, and a
		// non-coordinator participant has no orphan timeout, so skipping
		// it would strand its locks until ResolveInDoubt. AbortPrepared
		// is idempotent (unknown gids succeed), so over-delivery is
		// free. Still best effort: a shard that misses the abort stays
		// prepared until the coordinator's presumed-abort verdict
		// reaches it through ResolveInDoubt (or its own timeout, if it
		// is the coordinator).
		for _, i := range parts {
			for try := 0; ; try++ {
				if err := s.shards[i].AbortPrepared(ctx, gid); err == nil ||
					ctx.Err() != nil || try >= decisionRetries {
					break
				}
			}
		}
		s.met.CrossAborts.Inc()
		return prepErr
	}

	// Phase 2: the decision. Committing the coordinator's prepared
	// batch makes the decision durable there — the global commit point.
	// Until this succeeds no participant has committed, so a definite
	// refusal still aborts the whole transaction.
	var derr error
	for try := 0; ; try++ {
		_, _, derr = s.shards[coord].CommitPrepared(ctx, gid)
		if derr == nil || errors.Is(derr, ode.ErrNoPrepared) ||
			ctx.Err() != nil || try >= decisionRetries {
			break
		}
	}
	if errors.Is(derr, ode.ErrNoPrepared) {
		// The coordinator holds neither the prepared entry nor a commit
		// decision for it: the prepare timed out and was presumed
		// aborted (only the coordinator may do that). No participant can
		// have committed; finish the global abort.
		for _, i := range parts {
			if i != coord {
				_ = s.shards[i].AbortPrepared(ctx, gid)
			}
		}
		s.met.CrossAborts.Inc()
		return fmt.Errorf("client: cross-shard transaction %s aborted by coordinator timeout: %w", gid, derr)
	}
	if derr != nil {
		// Transport failure: the decision's fate is unknown. Neither
		// acking nor aborting is sound; the transaction stays in doubt
		// for ResolveInDoubt.
		s.met.InDoubt.Inc()
		return fmt.Errorf("%w (gid %s): %v", ErrInDoubt, gid, derr)
	}

	// Phase 3: deliver the decided commit to the other participants.
	// The outcome can no longer change; a participant that cannot be
	// reached keeps its prepared state (and locks) until redelivery or
	// ResolveInDoubt, and the commit acks regardless.
	for _, i := range parts {
		if i == coord {
			continue
		}
		var err error
		for try := 0; ; try++ {
			_, _, err = s.shards[i].CommitPrepared(ctx, gid)
			if err == nil || ctx.Err() != nil || try >= decisionRetries {
				break
			}
		}
		if err != nil {
			s.met.InDoubt.Inc()
		}
	}
	s.met.CrossCommits.Inc()
	return nil
}

// PNew creates a persistent object on a round-robin-chosen shard (each
// shard's allocator only mints OIDs that route back to it, so
// placement is load balancing, not addressing) and returns its OID.
func (t *STx) PNew(c *ode.Class, init *ode.Object) (ode.OID, error) {
	i := int(t.s.rr.Add(1)-1) % len(t.s.shards)
	tx, err := t.shardTx(i)
	if err != nil {
		return ode.NilOID, err
	}
	oid, err := tx.PNew(c, init)
	if err != nil {
		return ode.NilOID, err
	}
	if home := t.s.ShardFor(oid); home != i && len(t.s.shards) > 1 {
		// The shard allocated an OID that routes elsewhere: it was not
		// opened with -shard-slot/-shard-count matching this router.
		return ode.NilOID, fmt.Errorf(
			"client: shard %d allocated oid %d, which routes to shard %d: server shard options mismatch", i, oid, home)
	}
	return oid, nil
}

// byOID routes one point operation to oid's owning shard.
func (t *STx) byOID(oid ode.OID) (*Tx, error) { return t.shardTx(t.s.ShardFor(oid)) }

// Deref reads the current image of oid from its owning shard.
func (t *STx) Deref(oid ode.OID) (*ode.Object, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return nil, err
	}
	return tx.Deref(oid)
}

// Update replaces the image of oid on its owning shard.
func (t *STx) Update(oid ode.OID, o *ode.Object) error {
	tx, err := t.byOID(oid)
	if err != nil {
		return err
	}
	return tx.Update(oid, o)
}

// PDelete deletes oid on its owning shard.
func (t *STx) PDelete(oid ode.OID) error {
	tx, err := t.byOID(oid)
	if err != nil {
		return err
	}
	return tx.PDelete(oid)
}

// CurrentVersion returns the newest frozen version number of oid.
func (t *STx) CurrentVersion(oid ode.OID) (uint32, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return 0, err
	}
	return tx.CurrentVersion(oid)
}

// NewVersion freezes the current image of oid as a new version.
func (t *STx) NewVersion(oid ode.OID) (ode.VRef, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return ode.VRef{}, err
	}
	return tx.NewVersion(oid)
}

// Versions lists the frozen version numbers of oid.
func (t *STx) Versions(oid ode.OID) ([]uint32, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return nil, err
	}
	return tx.Versions(oid)
}

// DerefVersion reads a frozen version image.
func (t *STx) DerefVersion(ref ode.VRef) (*ode.Object, error) {
	tx, err := t.byOID(ref.OID)
	if err != nil {
		return nil, err
	}
	return tx.DerefVersion(ref)
}

// DeleteVersion deletes one frozen version.
func (t *STx) DeleteVersion(ref ode.VRef) error {
	tx, err := t.byOID(ref.OID)
	if err != nil {
		return err
	}
	return tx.DeleteVersion(ref)
}

// mergeRow is one element of a per-shard result stream.
type mergeRow struct {
	oid ode.OID
	obj *ode.Object
}

// mergeBatch is how many rows a shard's stream hands the merge at once:
// one channel operation per batch, not per row.
const mergeBatch = 64

// Forall runs the scan on every shard concurrently and streams the
// k-way merge of their OID-ordered result streams through fn, in
// global OID order — the same order, and for identical data the same
// rows, a single unsharded server would produce. fn's contract matches
// Tx.Forall: returning false stops consumption (all shard streams are
// drained), an error ends the scan with that error. When several
// shards fail, the lowest shard index's error is reported,
// deterministically. Each shard's rows reach the merge in OID-ordered
// slices of up to mergeBatch rows.
func (t *STx) Forall(sc *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	n := len(t.s.shards)
	if n == 1 {
		tx, err := t.shardTx(0)
		if err != nil {
			return 0, err
		}
		return tx.Forall(sc, fn)
	}
	// Open every shard's transaction up front (serially, before the
	// fan-out) so the scatter only does scan work.
	txs := make([]*Tx, n)
	for i := range txs {
		tx, err := t.shardTx(i)
		if err != nil {
			return 0, err
		}
		txs[i] = tx
	}
	t.s.met.ScatterScans.Inc()

	chans := make([]chan []mergeRow, n)
	errs := make([]error, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range txs {
		chans[i] = make(chan []mergeRow, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(chans[i])
			var rows []mergeRow
			send := func() bool {
				select {
				case chans[i] <- rows:
					rows = nil
					return true
				case <-stop:
					return false
				}
			}
			_, errs[i] = txs[i].Forall(sc, func(oid ode.OID, obj *ode.Object) (bool, error) {
				if rows == nil {
					rows = make([]mergeRow, 0, mergeBatch)
				}
				rows = append(rows, mergeRow{oid, obj})
				return len(rows) < mergeBatch || send(), nil
			})
			if len(rows) > 0 {
				send()
			}
		}(i)
	}

	// K-way merge: hold one batch per live stream, always deliver the
	// smallest head OID. Shards hold disjoint OID residues, so there are
	// never ties; a stream's batches are never empty, so a nil batch
	// means the stream ended.
	heads := make([][]mergeRow, n)
	for i := range heads {
		heads[i] = <-chans[i]
	}
	total := 0
	var scanErr error
	for {
		best := -1
		for i, h := range heads {
			if len(h) > 0 && (best < 0 || h[0].oid < heads[best][0].oid) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := heads[best][0]
		total++
		more, err := fn(r.oid, r.obj)
		if err != nil {
			scanErr = err
		}
		if err != nil || !more {
			break
		}
		if heads[best] = heads[best][1:]; len(heads[best]) == 0 {
			heads[best] = <-chans[best]
		}
	}
	close(stop)
	for i := 0; i < n; i++ {
		for range chans[i] {
		}
	}
	wg.Wait()
	if scanErr == nil {
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				scanErr = errs[i]
				break
			}
		}
	}
	return total, scanErr
}

// Collect runs the scan and returns every row, in global OID order.
func (t *STx) Collect(sc *Scan) ([]ode.OID, []*ode.Object, error) {
	var oids []ode.OID
	var objs []*ode.Object
	_, err := t.Forall(sc, func(oid ode.OID, obj *ode.Object) (bool, error) {
		oids = append(oids, oid)
		objs = append(objs, obj)
		return true, nil
	})
	return oids, objs, err
}

// Count runs the scan discarding rows.
func (t *STx) Count(sc *Scan) (int, error) {
	return t.Forall(sc, func(ode.OID, *ode.Object) (bool, error) { return true, nil })
}

// ShardMetrics counts the sharded router's behavior, registered under
// the client.shard.* names documented in docs/OBSERVABILITY.md.
type ShardMetrics struct {
	SingleCommits obs.Counter // commits that stayed on one shard (fast path)
	CrossCommits  obs.Counter // cross-shard transactions committed through 2PC
	CrossAborts   obs.Counter // cross-shard transactions aborted (a prepare failed or the coordinator presumed abort)
	InDoubt       obs.Counter // decisions whose delivery failed, leaving a participant (or the whole transaction) in doubt
	Resolved      obs.Counter // in-doubt transactions settled by ResolveInDoubt
	ScatterScans  obs.Counter // scatter-gather scans fanned out over all shards
}

// Attach registers the router metrics into reg; at most once per
// registry, as elsewhere in obs.
func (m *ShardMetrics) Attach(reg *obs.Registry) {
	reg.RegisterCounter("client.shard.single_commits", &m.SingleCommits)
	reg.RegisterCounter("client.shard.cross_commits", &m.CrossCommits)
	reg.RegisterCounter("client.shard.cross_aborts", &m.CrossAborts)
	reg.RegisterCounter("client.shard.indoubt", &m.InDoubt)
	reg.RegisterCounter("client.shard.resolved", &m.Resolved)
	reg.RegisterCounter("client.shard.scatter_scans", &m.ScatterScans)
}
