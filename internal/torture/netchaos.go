package torture

// Network-chaos torture: three full nodes (database, WAL source, wire
// server, failover monitor) meshed through netchaos proxy links, with
// client.Replicated traffic riding through per-client links. Rounds
// inject one network fault each — partitions, node kills, connection
// resets, latency, asymmetric stalls — while writes and floored reads
// keep flowing; automatic failover (heartbeat detection, quorum
// election, epoch fencing, resync self-healing) is what keeps the
// group serving. After every round the fault heals and the harness
// demands full convergence: exactly one writable node, one replication
// identity, equal applied LSNs, byte-identical state digests, and
// every acknowledged write present.
//
// Two invariants are checked continuously, not just at round ends:
//   - at most one node is ever writable at any given fencing epoch
//     (a background sampler owns an epoch→node ledger for the run);
//   - a write acknowledged to the client is never lost (verified
//     against the converged primary each round).
//
// Commit acks use CommitAckQuorum=1: the primary only acknowledges a
// write once a replica holds it, so an isolated primary cannot ack —
// that is precisely what makes the zero-acked-loss invariant hold
// across elections that legally discard an isolated primary's
// unacknowledged tail.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"ode"
	"ode/client"
	"ode/internal/netchaos"
	"ode/internal/obs"
	"ode/internal/repl"
	"ode/internal/server"
)

// Timing for the chaos cluster: aggressive enough that failover
// completes well inside a round, with the detection window several
// probe intervals long so transient latency faults don't trip it.
const (
	ncNodes      = 3
	ncHeartbeat  = 60 * time.Millisecond  // source heartbeat interval
	ncHBTimeout  = 700 * time.Millisecond // replica stream silence tolerance
	ncProbe      = 120 * time.Millisecond // monitor health-check interval
	ncWindow     = 450 * time.Millisecond // failure window before an election
	ncDial       = 300 * time.Millisecond // probe dial+roundtrip bound
	ncAckTimeout = 900 * time.Millisecond // semi-sync commit ack wait
	ncOpCtx      = 2 * time.Second        // per-client-op context budget
)

// ackedWrite is one client write whose commit was acknowledged — the
// harness holds the server to it forever after.
type ackedWrite struct {
	name string
	oid  ode.OID
}

type chaosRun struct {
	cfg Config
	rng *rand.Rand

	nmet  *netchaos.Metrics
	links [ncNodes][ncNodes]*netchaos.Link // [dialer][target]; nil diagonal
	clink [ncNodes]*netchaos.Link          // client → node i

	nodes [ncNodes]*chaosNode

	cl     *client.Replicated
	cstock *ode.Class
	acked  []ackedWrite

	// Run-long epoch ledger: which node first served writes at each
	// epoch. A second claimant is split brain.
	epochMu    sync.Mutex
	epochOwner map[uint64]int

	fatalMu  sync.Mutex
	fatalErr error

	checkStop chan struct{}
	checkDone chan struct{}

	resMu sync.Mutex // event goroutines bump counters concurrently
	res   Result
}

// repDeath carries a fatal replica-stream exit to the node's event
// loop, tagged with the incarnation it belongs to.
type repDeath struct {
	gen int
	err error
}

// chaosNode is one full node: its own store, WAL source, wire server,
// and failover monitor, restartable (with or without a wipe) across
// incarnations. The generation counter invalidates the previous
// incarnation's event goroutine and replica watcher on every restart.
type chaosNode struct {
	node // store, source and server; guarded by lifeMu (addr is the reserved port)
	run  *chaosRun
	idx  int
	name string // advertised election identity ("n0"..)

	lifeMu sync.Mutex // serializes start/teardown/promote/repoint/digest
	gen    int

	mu      sync.Mutex // guards the fields below for cheap concurrent reads
	live    *ode.DB    // node.db, published to the samplers while the incarnation runs
	met     *repl.Metrics
	rep     *repl.Replica
	mon     *repl.Monitor
	follow  string
	crashed bool
	evStop  chan struct{}

	repErr chan repDeath
}

func ncReplicaOpts() *repl.ReplicaOptions {
	return &repl.ReplicaOptions{
		DialTimeout:      500 * time.Millisecond,
		Backoff:          10 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		HeartbeatTimeout: ncHBTimeout,
	}
}

// runNetChaos is the driver behind mode "netchaos".
func runNetChaos(cfg Config) (*Result, error) {
	r := &chaosRun{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nmet:       &netchaos.Metrics{},
		epochOwner: make(map[uint64]int),
		checkStop:  make(chan struct{}),
		checkDone:  make(chan struct{}),
	}
	r.nmet.Attach(obs.NewRegistry())
	err := r.runAll()
	res := r.result()
	return &res, err
}

// result snapshots the counters under the lock (a plain copy would
// race the event goroutines on a failed run's early return).
func (r *chaosRun) result() Result {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	return r.res
}

func (r *chaosRun) count(f func(*Result)) {
	r.resMu.Lock()
	f(&r.res)
	r.resMu.Unlock()
}

func (r *chaosRun) failf(format string, args ...any) {
	r.fatalMu.Lock()
	if r.fatalErr == nil {
		r.fatalErr = fmt.Errorf(format, args...)
	}
	r.fatalMu.Unlock()
}

// violation returns the first recorded invariant violation, if any.
func (r *chaosRun) violation() error {
	r.fatalMu.Lock()
	defer r.fatalMu.Unlock()
	return r.fatalErr
}

func (r *chaosRun) runAll() error {
	defer r.shutdown()
	if err := r.boot(); err != nil {
		return err
	}
	go r.checkEpochs()
	if err := r.bootstrapTraffic(); err != nil {
		// An invariant violation (e.g. split brain) explains a stuck
		// bootstrap far better than the resulting client timeout does.
		if verr := r.violation(); verr != nil {
			return verr
		}
		return err
	}
	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return err
		}
		r.count(func(res *Result) { res.Rounds++ })
	}
	return r.violation()
}

// boot reserves stable node addresses, wires the full proxy mesh, and
// starts all three nodes cold. Nobody self-crowns: every node boots
// read-only seeking a primary, and the first election crowns the
// deterministic winner.
func (r *chaosRun) boot() error {
	// Reserve each node's port up front: links must know their target
	// address before the target's first Listen, and the address must
	// survive node restarts.
	addrs := make([]string, ncNodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i == j {
				continue
			}
			l, err := netchaos.NewLink(addrs[j], r.nmet)
			if err != nil {
				return err
			}
			r.links[i][j] = l
		}
		cl, err := netchaos.NewLink(addrs[i], r.nmet)
		if err != nil {
			return err
		}
		r.clink[i] = cl
	}
	for i := 0; i < ncNodes; i++ {
		n := &chaosNode{
			node:   node{path: filepath.Join(r.cfg.Dir, fmt.Sprintf("node%d.odb", i)), addr: addrs[i]},
			run:    r,
			idx:    i,
			name:   fmt.Sprintf("n%d", i),
			repErr: make(chan repDeath, 8),
		}
		r.nodes[i] = n
		n.lifeMu.Lock()
		err := n.startLocked("")
		n.lifeMu.Unlock()
		if err != nil {
			return fmt.Errorf("boot %s: %w", n.name, err)
		}
	}
	return nil
}

// bootstrapTraffic waits out the first election by writing: dials the
// clients through their links and drives writes until one commits.
func (r *chaosRun) bootstrapTraffic() error {
	_, cstock := Schema()
	r.cstock = cstock
	clients := make([]*client.Client, ncNodes)
	for i := 0; i < ncNodes; i++ {
		cschema, _ := Schema()
		var err error
		for deadline := time.Now().Add(10 * time.Second); ; {
			clients[i], err = client.Dial(r.clink[i].Addr(), cschema, &client.Options{
				DialTimeout: 500 * time.Millisecond,
				CacheSize:   64,
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dial node %d: %w", i, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	r.cl = client.NewReplicated(clients[0], clients[1:]...)
	r.cl.ProbeTimeout = 400 * time.Millisecond

	deadline := time.Now().Add(20 * time.Second)
	for i := 0; ; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
		err := r.cl.RunTx(ctx, func(tx *client.Tx) error {
			o := ode.NewObject(r.cstock)
			o.MustSet("name", ode.Str(fmt.Sprintf("seed-%d", i)))
			o.MustSet("qty", ode.Int(int64(i)))
			_, err := tx.PNew(r.cstock, o)
			return err
		})
		cancel()
		if err == nil {
			fmt.Fprintf(r.cfg.Log, "bootstrap: first commit landed (primary n%d)\n", r.primaryIdx())
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bootstrap election never produced a writable primary: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// primaryIdx reports which node currently serves writes, or -1.
func (r *chaosRun) primaryIdx() int {
	for i, n := range r.nodes {
		db, crashed := n.snapshot()
		if !crashed && db != nil && !db.ReadOnly() {
			return i
		}
	}
	return -1
}

// round injects one fault, drives traffic through it, heals, and then
// demands full convergence plus every acked write intact.
func (r *chaosRun) round(round int) error {
	fault := r.injectFault()
	fmt.Fprintf(r.cfg.Log, "round %d: %s\n", round, fault)
	r.traffic(round)
	if err := r.violation(); err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	r.healAll()
	if err := r.converge(round); err != nil {
		return err
	}
	if err := r.verifyAcked(round); err != nil {
		return err
	}
	return r.violation()
}

// injectFault picks and applies one seeded fault, returning its
// description for the log.
func (r *chaosRun) injectFault() string {
	p := r.primaryIdx()
	if p < 0 {
		p = r.rng.Intn(ncNodes)
	}
	other := (p + 1 + r.rng.Intn(ncNodes-1)) % ncNodes
	switch r.rng.Intn(8) {
	case 0:
		r.isolate(p)
		r.count(func(res *Result) { res.Partitions++ })
		return fmt.Sprintf("isolate primary n%d", p)
	case 1:
		r.isolate(other)
		r.count(func(res *Result) { res.Partitions++ })
		return fmt.Sprintf("isolate replica n%d", other)
	case 2:
		r.nodes[p].kill()
		r.count(func(res *Result) { res.NodeKills++ })
		return fmt.Sprintf("kill primary n%d", p)
	case 3:
		r.nodes[other].kill()
		r.count(func(res *Result) { res.NodeKills++ })
		return fmt.Sprintf("kill replica n%d", other)
	case 4:
		// Sever live connections on a few random links; everything
		// reconnects on its own.
		n := 1 + r.rng.Intn(3)
		for k := 0; k < n; k++ {
			r.randomLink().Reset()
		}
		r.count(func(res *Result) { res.Resets++ })
		return fmt.Sprintf("reset %d random links", n)
	case 5:
		d := time.Duration(3+r.rng.Intn(18)) * time.Millisecond
		n := 1 + r.rng.Intn(2)
		for k := 0; k < n; k++ {
			r.randomLink().SetLatency(d)
		}
		r.count(func(res *Result) { res.Delays++ })
		return fmt.Sprintf("add %v latency to %d links", d, n)
	case 6:
		// Asymmetric drop: silence one direction of one inter-node
		// link. Stalling FromTarget on a replica's link to its primary
		// starves the WAL stream (no heartbeats) while the replica's
		// own sends still flow.
		l := r.randomMeshLink()
		dir := netchaos.Dir(r.rng.Intn(2))
		l.SetStall(dir, true)
		r.count(func(res *Result) { res.Stalls++ })
		return fmt.Sprintf("stall dir=%d on a mesh link", int(dir))
	default:
		return "no fault (control round)"
	}
}

// isolate partitions node i away from its peers and its client.
func (r *chaosRun) isolate(i int) {
	for j := 0; j < ncNodes; j++ {
		if j == i {
			continue
		}
		r.links[i][j].SetPartition(true)
		r.links[j][i].SetPartition(true)
	}
	r.clink[i].SetPartition(true)
}

func (r *chaosRun) randomLink() *netchaos.Link {
	if r.rng.Intn(4) == 0 {
		return r.clink[r.rng.Intn(ncNodes)]
	}
	return r.randomMeshLink()
}

func (r *chaosRun) randomMeshLink() *netchaos.Link {
	for {
		i, j := r.rng.Intn(ncNodes), r.rng.Intn(ncNodes)
		if i != j {
			return r.links[i][j]
		}
	}
}

// healAll clears every network fault and revives killed nodes.
func (r *chaosRun) healAll() {
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j {
				r.links[i][j].Heal()
			}
		}
		r.clink[i].Heal()
	}
	for _, n := range r.nodes {
		if _, crashed := n.snapshot(); crashed {
			if err := n.revive(); err != nil {
				r.failf("revive %s: %v", n.name, err)
			}
		}
	}
}

// traffic drives one round of client operations: mostly named writes
// (recorded as acked on success), some floored reads of previously
// acked writes.
func (r *chaosRun) traffic(round int) {
	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.count(func(res *Result) { res.Ops++ })
		if r.rng.Intn(4) == 0 && len(r.acked) > 0 {
			r.readAcked()
		} else {
			r.write(round, op)
		}
		time.Sleep(time.Duration(2+r.rng.Intn(15)) * time.Millisecond)
		if r.violation() != nil {
			return
		}
	}
}

func (r *chaosRun) write(round, op int) {
	name := fmt.Sprintf("w-%d-%d", round, op)
	qty := int64(r.rng.Intn(1000))
	ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
	defer cancel()
	var oid ode.OID
	err := r.cl.RunTx(ctx, func(tx *client.Tx) error {
		o := ode.NewObject(r.cstock)
		o.MustSet("name", ode.Str(name))
		o.MustSet("qty", ode.Int(qty))
		id, perr := tx.PNew(r.cstock, o)
		if perr != nil {
			return perr
		}
		oid = id
		return nil
	})
	if err == nil {
		// The commit was acknowledged under the semi-sync quorum: the
		// batch is durable on at least two nodes, and no legal election
		// outcome may lose it.
		r.acked = append(r.acked, ackedWrite{name: name, oid: oid})
		r.count(func(res *Result) { res.Acked++ })
	} else {
		// Errored or timed out: the write is uncertain (it may have
		// landed; an isolated primary's tail may legally be discarded).
		r.count(func(res *Result) { res.Uncertain++ })
	}
}

// readAcked runs a floored read of a random acked write. A transport
// failure mid-fault is noise; an affirmative "no such object" from a
// node that passed the freshness floor is recorded as a stale read.
// (It is not escalated to a failure here: a wiped node mid-resync
// against a not-yet-deposed stale primary can transiently serve forked
// history whose LSNs pass the numeric floor. The authoritative
// acked-write check runs at round end against the converged group.)
func (r *chaosRun) readAcked() {
	w := r.acked[r.rng.Intn(len(r.acked))]
	ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
	defer cancel()
	err := r.cl.View(ctx, func(tx *client.Tx) error {
		o, derr := tx.Deref(w.oid)
		if derr != nil {
			return derr
		}
		if got := o.MustGet("name").Str(); got != w.name {
			return fmt.Errorf("acked object @%d holds %q, want %q", w.oid, got, w.name)
		}
		return nil
	})
	r.count(func(res *Result) {
		res.Reads++
		switch {
		case err == nil:
		case errors.Is(err, ode.ErrNoObject):
			res.StaleReads++
		default:
			res.ReadFails++
		}
	})
	if err != nil && errors.Is(err, ode.ErrNoObject) {
		fmt.Fprintf(r.cfg.Log, "stale floored read: acked %q (@%d) answered absent mid-fault\n", w.name, w.oid)
	}
}

// converge waits until the healed group has exactly one writable node
// and every node holds byte-identical state at the same position.
func (r *chaosRun) converge(round int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := r.violation(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("round %d: group failed to converge: %s", round, r.describe())
		}
		time.Sleep(25 * time.Millisecond)

		prim := -1
		ok := true
		for i, n := range r.nodes {
			db, crashed := n.snapshot()
			if crashed || db == nil {
				ok = false
				break
			}
			if !db.ReadOnly() {
				if prim >= 0 {
					ok = false // old primary not yet deposed; keep waiting
					break
				}
				prim = i
			}
		}
		if !ok || prim < 0 {
			continue
		}

		type nodeDigest struct {
			digest string
			lsn    uint64
			replID string
		}
		var ds [ncNodes]nodeDigest
		for i, n := range r.nodes {
			d, lsn, replID, err := n.state()
			if err != nil {
				ok = false // node restarting mid-sample; retry
				break
			}
			ds[i] = nodeDigest{d, lsn, replID}
		}
		if !ok {
			continue
		}
		settled := true
		for i := 1; i < ncNodes; i++ {
			if ds[i].lsn != ds[0].lsn || ds[i].replID != ds[0].replID {
				settled = false
				break
			}
		}
		if !settled {
			continue
		}
		// Positions agree; now the state must, byte for byte.
		for i := 1; i < ncNodes; i++ {
			if ds[i].digest != ds[0].digest {
				return fmt.Errorf("round %d: state diverged at LSN %d: n0 %s, n%d %s",
					round, ds[0].lsn, ds[0].digest[:12], i, ds[i].digest[:12])
			}
		}
		r.count(func(res *Result) { res.FinalEpoch = r.nodes[prim].epoch() })
		fmt.Fprintf(r.cfg.Log, "round %d: converged, primary n%d epoch %d lsn %d digest %s\n",
			round, prim, r.nodes[prim].epoch(), ds[0].lsn, ds[0].digest[:12])
		return nil
	}
}

// verifyAcked asserts every acknowledged write exists on the converged
// primary — the zero-acked-write-loss invariant.
func (r *chaosRun) verifyAcked(round int) error {
	prim := r.primaryIdx()
	if prim < 0 {
		return fmt.Errorf("round %d: no primary after convergence", round)
	}
	n := r.nodes[prim]
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	db := n.db
	if db == nil {
		return fmt.Errorf("round %d: primary n%d has no open store", round, prim)
	}
	return db.View(func(tx *ode.Tx) error {
		for _, w := range r.acked {
			o, err := tx.Deref(w.oid)
			if err != nil {
				return fmt.Errorf("round %d: acked write %q (@%d) lost: %w", round, w.name, w.oid, err)
			}
			if got := o.MustGet("name").Str(); got != w.name {
				return fmt.Errorf("round %d: acked write @%d corrupted: %q, want %q", round, w.oid, got, w.name)
			}
		}
		return nil
	})
}

// describe snapshots every node's role for a convergence-failure
// message.
func (r *chaosRun) describe() string {
	s := ""
	for i, n := range r.nodes {
		db, crashed := n.snapshot()
		switch {
		case crashed:
			s += fmt.Sprintf("n%d=crashed ", i)
		case db == nil:
			s += fmt.Sprintf("n%d=closed ", i)
		case db.ReadOnly():
			s += fmt.Sprintf("n%d=ro(e%d,lsn%d) ", i, db.Epoch(), db.AppliedLSN())
		default:
			s += fmt.Sprintf("n%d=rw(e%d,lsn%d) ", i, db.Epoch(), db.AppliedLSN())
		}
	}
	return s
}

// checkEpochs continuously samples every node for the run's core
// safety invariant: at most one node ever serves writes at a given
// fencing epoch. Epoch and role are atomic reads, so sampling is safe
// against concurrent restarts; sandwiching the epoch read between two
// role reads pins it to a writable interval.
func (r *chaosRun) checkEpochs() {
	defer close(r.checkDone)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.checkStop:
			return
		case <-t.C:
		}
		for i, n := range r.nodes {
			db, crashed := n.snapshot()
			if crashed || db == nil {
				continue
			}
			ro1 := db.ReadOnly()
			e := db.Epoch()
			ro2 := db.ReadOnly()
			if ro1 || ro2 {
				continue
			}
			r.epochMu.Lock()
			owner, seen := r.epochOwner[e]
			if !seen {
				r.epochOwner[e] = i
			}
			r.epochMu.Unlock()
			if seen && owner != i {
				r.failf("split brain: n%d and n%d both served writes at epoch %d", owner, i, e)
			}
		}
	}
}

func (r *chaosRun) shutdown() {
	close(r.checkStop)
	<-r.checkDone
	if r.cl != nil {
		r.cl.Close()
	}
	for _, n := range r.nodes {
		if n != nil {
			n.kill()
		}
	}
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j && r.links[i][j] != nil {
				r.links[i][j].Close()
			}
		}
		if r.clink[i] != nil {
			r.clink[i].Close()
		}
	}
}

// ---- chaosNode lifecycle -------------------------------------------

func (n *chaosNode) logf(format string, args ...any) {
	fmt.Fprintf(n.run.cfg.Log, "["+n.name+"] "+format+"\n", args...)
}

// peerAddrs returns this node's proxied view of its peers, in index
// order (n0's links to n1 and n2, and so on).
func (n *chaosNode) peerAddrs() []string {
	var out []string
	for j := 0; j < ncNodes; j++ {
		if j != n.idx {
			out = append(out, n.run.links[n.idx][j].Addr())
		}
	}
	return out
}

func (n *chaosNode) snapshot() (*ode.DB, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live, n.crashed
}

func (n *chaosNode) epoch() uint64 {
	db, _ := n.snapshot()
	if db == nil {
		return 0
	}
	return db.Epoch()
}

// state digests this node's store under the lifecycle lock, so a
// concurrent restart cannot pull the store out from under the scan,
// and reports the applied LSN and replication identity it holds at.
func (n *chaosNode) state() (string, uint64, string, error) {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if db, crashed := n.snapshot(); crashed || db == nil {
		return "", 0, "", fmt.Errorf("node down")
	}
	lsn1 := n.db.AppliedLSN()
	d, err := n.digest()
	if err != nil {
		return "", 0, "", err
	}
	if lsn2 := n.db.AppliedLSN(); lsn2 != lsn1 {
		return "", 0, "", fmt.Errorf("applying mid-digest")
	}
	return d, lsn1, n.db.ReplicationID(), nil
}

// openDBLocked opens (or reopens) the store with the repl mode's
// small-WAL pressure plus a fresh metric set on the store's own
// registry, and publishes it to the samplers. Caller holds lifeMu.
func (n *chaosNode) openDBLocked() error {
	if _, err := n.open(smallWAL); err != nil {
		return err
	}
	met := &repl.Metrics{}
	met.Attach(n.db.MetricsRegistry())
	n.mu.Lock()
	n.live, n.met = n.db, met
	n.mu.Unlock()
	return nil
}

// closeDBLocked stops serving, then hides the store from the samplers
// and crashes it. The server drains first so the samplers keep seeing a
// store that may still be committing in-flight writes. Caller holds
// lifeMu.
func (n *chaosNode) closeDBLocked() {
	n.stopServing()
	n.mu.Lock()
	n.live = nil
	n.mu.Unlock()
	n.crash()
}

// trySubscribe attempts to follow addr, retrying transient failures
// briefly. Resync demands and epoch fences return to the caller, who
// decides between a wipe and a different primary.
func (n *chaosNode) trySubscribe(db *ode.DB, addr string) (*repl.Replica, error) {
	n.mu.Lock()
	met := n.met
	n.mu.Unlock()
	var last error
	for deadline := time.Now().Add(2 * time.Second); ; {
		db.SetReadOnly(true)
		rep := repl.NewReplica(db, addr, met, ncReplicaOpts())
		err := rep.Start()
		if err == nil {
			return rep, nil
		}
		last = err
		if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, last
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startLocked brings the node up for a new incarnation. With follow
// empty it scans its peers for the writable node with the highest
// epoch; finding none it boots read-only, "seeking" — the monitor is
// pointed at an arbitrary peer so the follower tick runs, the window
// expires, and the election decides. A node never crowns itself at
// boot: a restarting node holds the epoch it last adopted, and coming
// up writable there could put two writers on one epoch. Caller holds
// lifeMu.
func (n *chaosNode) startLocked(follow string) error {
	n.gen++
	gen := n.gen
	if err := n.openDBLocked(); err != nil {
		return err
	}
	db := n.db

	if follow == "" {
		best, bestEpoch := "", uint64(0)
		for _, p := range n.peerAddrs() {
			st, err := repl.Probe(p, ncDial)
			if err == nil && !st.ReadOnly && st.Epoch >= db.Epoch() && (best == "" || st.Epoch > bestEpoch) {
				best, bestEpoch = p, st.Epoch
			}
		}
		follow = best
	}

	var rep *repl.Replica
	for follow != "" {
		r0, err := n.trySubscribe(db, follow)
		if err == nil {
			rep = r0
			break
		}
		if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
			n.run.count(func(res *Result) { res.Resyncs++ })
			n.logf("resync demanded by %s; wiping", follow)
			n.closeDBLocked()
			if err := n.wipe(); err != nil {
				return err
			}
			if err := n.openDBLocked(); err != nil {
				return err
			}
			db = n.db
			continue
		}
		n.logf("cannot follow %s (%v); seeking", follow, err)
		follow = ""
	}
	if rep == nil {
		db.SetReadOnly(true)
	}

	n.mu.Lock()
	met := n.met
	n.mu.Unlock()
	n.src = repl.NewSource(db, met, &repl.SourceOptions{HeartbeatEvery: ncHeartbeat, Logf: n.logf})
	err := n.serve(&server.Options{
		Repl:            n.src,
		CommitAckQuorum: 1,
		AckTimeout:      ncAckTimeout,
		Advertise:       n.name,
		DrainTimeout:    50 * time.Millisecond,
	})
	if err != nil {
		n.closeDBLocked()
		return err
	}

	mon := repl.NewMonitor(db, met, &repl.MonitorOptions{
		Self:        n.name,
		Peers:       n.peerAddrs(),
		Window:      ncWindow,
		Probe:       ncProbe,
		DialTimeout: ncDial,
		Logf:        n.logf,
	})
	evStop := make(chan struct{})
	n.mu.Lock()
	n.rep, n.mon = rep, mon
	n.follow, n.evStop, n.crashed = follow, evStop, false
	n.mu.Unlock()
	if rep != nil {
		mon.SetRole(follow)
	} else {
		mon.SetSeeking()
	}
	mon.Start()
	go n.events(gen, mon, evStop)
	if rep != nil {
		go n.watchRep(gen, rep)
	}
	return nil
}

// teardownLocked stops every component of the current incarnation and
// crash-closes the store. Caller holds lifeMu.
func (n *chaosNode) teardownLocked() {
	n.gen++
	n.mu.Lock()
	rep, mon, evStop := n.rep, n.mon, n.evStop
	n.rep, n.mon, n.evStop = nil, nil, nil
	n.mu.Unlock()
	if evStop != nil {
		close(evStop)
	}
	if mon != nil {
		mon.Stop()
	}
	if rep != nil {
		rep.Stop()
	}
	n.closeDBLocked()
}

// restartLocked tears the node down and brings it back through the
// boot scan, optionally wiping the store first. Caller holds lifeMu.
func (n *chaosNode) restartLocked(wipe bool) error {
	n.teardownLocked()
	if wipe {
		if err := n.wipe(); err != nil {
			return err
		}
	}
	return n.startLocked("")
}

// kill crash-stops the node (process death).
func (n *chaosNode) kill() {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if _, crashed := n.snapshot(); crashed {
		return
	}
	n.teardownLocked()
	n.mu.Lock()
	n.crashed = true
	n.mu.Unlock()
	n.logf("killed")
}

// revive restarts a killed node from disk; it rejoins through the boot
// scan (or seeks if no primary is visible).
func (n *chaosNode) revive() error {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if _, crashed := n.snapshot(); !crashed {
		return nil
	}
	n.logf("reviving")
	return n.startLocked("")
}

// watchRep forwards a fatal replica-stream exit to the event loop.
func (n *chaosNode) watchRep(gen int, rep *repl.Replica) {
	<-rep.Done()
	err := rep.Err()
	if err == nil {
		return // clean Stop
	}
	select {
	case n.repErr <- repDeath{gen: gen, err: err}:
	default:
	}
}

// events is one incarnation's decision loop, mirroring ode-server's:
// act on every monitor event, re-arm with SetRole, and self-heal
// through fatal replica exits. It exits when its incarnation ends (a
// restart closes stop or bumps gen).
func (n *chaosNode) events(gen int, mon *repl.Monitor, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case ev := <-mon.Events():
			switch ev.Kind {
			case repl.EventPromoteSelf:
				if !n.promoteSelf(gen) {
					return
				}
				mon.SetRole("")
			case repl.EventNewPrimary, repl.EventDeposed:
				ok, role := n.repoint(gen, ev.Addr)
				if !ok {
					return
				}
				if role == "" {
					mon.SetSeeking()
				} else {
					mon.SetRole(role)
				}
			}
		case rd := <-n.repErr:
			if rd.gen != gen {
				continue
			}
			if errors.Is(rd.err, ode.ErrStaleEpoch) {
				// The stream is fenced: the followed primary is stale
				// (deposed). Drop the dead replica and seek the real one.
				if !n.dropRep(gen) {
					return
				}
				mon.SetSeeking()
				continue
			}
			// Resync demand or stream damage: wipe and rejoin by scan.
			n.rejoin(gen, rd.err)
			return
		}
	}
}

// promoteSelf executes an election win: bump the epoch durably, open
// for writes. Returns false when this incarnation is over.
func (n *chaosNode) promoteSelf(gen int) bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.gen != gen {
		return false
	}
	db := n.db
	n.mu.Lock()
	rep, met := n.rep, n.met
	n.rep = nil
	n.follow = ""
	n.mu.Unlock()
	var (
		epoch uint64
		err   error
	)
	switch {
	case rep != nil:
		epoch, err = rep.Promote()
	case db.ReadOnly():
		epoch, err = repl.PromoteDB(db, met)
	default:
		return true // already writable (duplicate event)
	}
	if err != nil {
		n.logf("promote failed: %v", err)
		if rerr := n.restartLocked(false); rerr != nil {
			n.run.failf("%s restart after failed promote: %v", n.name, rerr)
		}
		return false
	}
	n.run.count(func(res *Result) { res.Promotions++ })
	n.logf("promoted to epoch %d", epoch)
	return true
}

// repoint demotes (if needed) and re-subscribes under the writable
// peer at addr. Unreachable is tolerated — the node holds read-only
// and the monitor keeps probing; a resync demand wipes and rejoins.
// Returns (incarnation-still-live, role): role is the primary address
// when a stream attached, or "" when the node holds unattached and the
// monitor must re-arm as a seeker.
func (n *chaosNode) repoint(gen int, addr string) (bool, string) {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.gen != gen {
		return false, ""
	}
	db := n.db
	n.mu.Lock()
	rep := n.rep
	n.rep = nil
	n.mu.Unlock()
	if rep != nil {
		rep.Stop()
	}
	db.SetReadOnly(true)
	r0, err := n.trySubscribe(db, addr)
	if err == nil {
		n.mu.Lock()
		n.rep, n.follow = r0, addr
		n.mu.Unlock()
		go n.watchRep(gen, r0)
		return true, addr
	}
	if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
		n.run.count(func(res *Result) { res.Resyncs++ })
		n.logf("rejoining %s demands resync; wiping", addr)
		if rerr := n.restartLocked(true); rerr != nil {
			n.run.failf("%s resync restart: %v", n.name, rerr)
		}
		return false, ""
	}
	n.logf("cannot reach new primary %s (%v); holding read-only", addr, err)
	n.mu.Lock()
	n.follow = addr
	n.mu.Unlock()
	return true, "" // unattached: seek
}

// dropRep clears a dead replica handle; the monitor takes over
// discovery. Returns false when this incarnation is over.
func (n *chaosNode) dropRep(gen int) bool {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.gen != gen {
		return false
	}
	n.mu.Lock()
	n.rep = nil
	n.mu.Unlock()
	return true
}

// rejoin handles a fatally dead stream (resync demand, damage): wipe
// the store and rejoin whatever primary the boot scan finds.
func (n *chaosNode) rejoin(gen int, cause error) {
	n.lifeMu.Lock()
	defer n.lifeMu.Unlock()
	if n.gen != gen {
		return
	}
	n.run.count(func(res *Result) { res.Resyncs++ })
	n.logf("stream died (%v); wiping and rejoining", cause)
	if err := n.restartLocked(true); err != nil {
		n.run.failf("%s rejoin: %v", n.name, err)
	}
}
