// ode-server is the network daemon: it opens an Ode database file and
// serves it over TCP to remote clients (the ode/client package, ode-sh
// -connect, ode-bench -connect) using the internal/wire protocol.
//
// Usage:
//
//	ode-server -db inventory.odb -addr :6339 schema.oql
//	ode-server -db bench.odb -bench-schema -metrics :6340
//
// The schema rule is the same as for embedded openers of a shared
// file: clients must register the identical class list. A schema is
// supplied either as .oql scripts (class declarations, as ode-sh
// accepts), or with -bench-schema (the benchmark catalog, for remote
// ode-bench and CI smoke), or left empty for pure remote-O++ use —
// remote shells can declare classes over the wire.
//
// -metrics serves the engine+server metric registry on HTTP as both
// expvar (/debug/vars) and a plain JSON snapshot (/metrics); the same
// snapshot is available in-band over the wire protocol. docs/SERVER.md
// documents the deployment surface, docs/OBSERVABILITY.md the metric
// names.
//
// -replica-of HOST:PORT starts the node as a read replica: it
// subscribes to the primary's WAL stream, applies committed batches,
// and serves reads while rejecting writes with a typed read-only
// error. If the primary cannot serve the replica's position, the
// daemon exits unless -resync (or -auto-failover) permits wiping the
// local copy and bootstrapping from a full snapshot. SIGUSR1 (or the
// wire promote command) promotes the replica: it detaches, durably
// bumps the fencing epoch, and accepts writes. Every node also accepts
// subscribers of its own, so replicas can cascade and a promoted node
// keeps its followers.
//
// -auto-failover (with -peers HOST:PORT,...) runs the node
// self-managing: followers detect a dead primary within
// -failover-window and deterministically elect the freshest reachable
// node, which promotes itself; a deposed primary detects the newer
// epoch, demotes itself, and rejoins the group as a replica (wiping
// and resyncing if its history forked); fatal stream errors self-heal
// by resubscribing or resyncing with backoff instead of requiring an
// operator. docs/REPLICATION.md is the operations guide.
//
// Exit codes: 0 clean drain, 1 fatal startup/serve error, 2 usage,
// 3 fatal replication error (e.g. a resync demand without permission
// to wipe).
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ode"
	"ode/internal/bench"
	"ode/internal/oql"
	"ode/internal/repl"
	"ode/internal/server"
)

// Exit codes (documented above; CI scripts branch on them).
const (
	exitClean = 0
	exitFatal = 1
	exitUsage = 2
	exitRepl  = 3
)

type config struct {
	addr        string
	advertise   string
	dbPath      string
	poolPages   int
	cacheSize   int
	noSync      bool
	maxTx       int
	maxQueued   int
	walSoft     int64
	walHard     int64
	maxConns    int
	maxDeadline time.Duration
	drain       time.Duration
	metricsAddr string
	replicaOf   string
	resync      bool
	auto        bool
	peers       []string
	window      time.Duration
	ackQuorum   int
	ackTimeout  time.Duration
	shardSlot   int
	shardCount  int

	schema *ode.Schema
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:6339", "listen address for the wire protocol")
		advertise   = flag.String("advertise", "", "address peers reach this node at (default: -addr); election rank identity")
		dbPath      = flag.String("db", "", "database file (required)")
		poolPages   = flag.Int("pool", 4096, "buffer pool size in pages")
		cacheSize   = flag.Int("cache", 0, "decoded-object cache entries (0: engine default)")
		noSync      = flag.Bool("nosync", false, "skip fsync on commit (crash-unsafe; benchmarks only)")
		maxTx       = flag.Int("max-tx", 0, "admission control: concurrent transaction slots (0: unlimited)")
		maxQueued   = flag.Int("max-queued", 0, "admission control: queued transactions beyond the slots")
		walSoft     = flag.Int64("wal-soft", 0, "WAL soft limit in bytes (0: engine default)")
		walHard     = flag.Int64("wal-hard", 0, "WAL hard limit in bytes (0: engine default)")
		maxConns    = flag.Int("max-conns", 256, "session table bound; excess connections are shed")
		maxDeadline = flag.Duration("max-deadline", 0, "clamp client transaction deadlines (0: unclamped)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		metricsAddr = flag.String("metrics", "", "serve /metrics (JSON) and /debug/vars (expvar) on this address")
		benchSchema = flag.Bool("bench-schema", false, "register the benchmark catalog (for remote ode-bench)")
		replicaOf   = flag.String("replica-of", "", "follow the primary at HOST:PORT as a read replica")
		resync      = flag.Bool("resync", false, "with -replica-of: permit wiping the local copy for a full snapshot resync")
		auto        = flag.Bool("auto-failover", false, "with -peers: detect primary failure, elect, promote, and self-heal automatically (implies -resync)")
		peers       = flag.String("peers", "", "comma-separated HOST:PORT list of the other nodes in the group")
		window      = flag.Duration("failover-window", 3*time.Second, "how long the primary must be unreachable before failing over")
		ackQuorum   = flag.Int("commit-ack-quorum", 0, "replicas that must ack each commit before its reply (0: asynchronous)")
		ackTimeout  = flag.Duration("commit-ack-timeout", 2*time.Second, "bound on the commit ack wait")
		shardSlot   = flag.Int("shard-slot", 0, "with -shard-count: this node's shard index (OIDs ≡ slot mod count route here)")
		shardCount  = flag.Int("shard-count", 0, "shards in the group; enables striped OID allocation and 2PC participation (0: unsharded)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ode-server -db FILE [-addr HOST:PORT] [schema.oql ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dbPath == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	if *auto && *peers == "" {
		fmt.Fprintln(os.Stderr, "ode-server: -auto-failover requires -peers")
		os.Exit(exitUsage)
	}
	if *shardCount > 0 && (*shardSlot < 0 || *shardSlot >= *shardCount) {
		fmt.Fprintf(os.Stderr, "ode-server: -shard-slot %d out of range for -shard-count %d\n", *shardSlot, *shardCount)
		os.Exit(exitUsage)
	}
	if *shardCount == 0 && *shardSlot != 0 {
		fmt.Fprintln(os.Stderr, "ode-server: -shard-slot requires -shard-count")
		os.Exit(exitUsage)
	}
	if *noSync {
		// Without fsync, commits are acked — and their LSNs advertised
		// to replication subscribers — before anything is durable. A
		// crash then leaves this node behind positions it already
		// shipped, silently diverging the group; see docs/REPLICATION.md
		// "Durability and SetSync(false)".
		fmt.Fprintln(os.Stderr, "ode-server: WARNING: -nosync acks commits before durability; a crash can lose acked transactions")
		if *replicaOf != "" || *auto {
			fmt.Fprintln(os.Stderr, "ode-server: WARNING: -nosync on a replica can silently diverge the replication group after a crash (acked LSNs may be lost); do not promote a node run this way")
		}
	}

	// Assemble the schema: benchmark catalog, .oql class declarations,
	// or empty (remote shells declare classes over the wire).
	var schema *ode.Schema
	if *benchSchema {
		schema, _ = bench.Schema()
	} else {
		schema = ode.NewSchema()
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if _, err := oql.SplitSchema(string(src), schema); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}

	cfg := &config{
		addr:        *addr,
		advertise:   *advertise,
		dbPath:      *dbPath,
		poolPages:   *poolPages,
		cacheSize:   *cacheSize,
		noSync:      *noSync,
		maxTx:       *maxTx,
		maxQueued:   *maxQueued,
		walSoft:     *walSoft,
		walHard:     *walHard,
		maxConns:    *maxConns,
		maxDeadline: *maxDeadline,
		drain:       *drain,
		metricsAddr: *metricsAddr,
		replicaOf:   *replicaOf,
		resync:      *resync,
		auto:        *auto,
		window:      *window,
		ackQuorum:   *ackQuorum,
		ackTimeout:  *ackTimeout,
		shardSlot:   *shardSlot,
		shardCount:  *shardCount,
		schema:      schema,
	}
	if cfg.advertise == "" {
		cfg.advertise = cfg.addr
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.peers = append(cfg.peers, p)
			}
		}
	}

	os.Exit(runLoop(cfg))
}

// curDB is the currently open database, for the process-global metrics
// endpoint (HTTP handlers register once but the database is reopened
// across resync restarts).
var curDB atomic.Pointer[ode.DB]

// outcome is one run's verdict: exit with code, or restart the node
// (optionally wiping the local copy first) following a new primary.
type outcome struct {
	code    int
	restart bool
	wipe    bool
	follow  string
}

// runLoop runs the node until it exits, restarting (and wiping, when
// the stream demanded a resync) across in-process role changes that
// need a fresh database. Restart backoff doubles on rapid crash loops
// and resets after a healthy run.
func runLoop(cfg *config) int {
	if cfg.metricsAddr != "" {
		expvar.Publish("ode", expvar.Func(func() any {
			if db := curDB.Load(); db != nil {
				return db.MetricsRegistry().Snapshot()
			}
			return nil
		}))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if db := curDB.Load(); db != nil {
				json.NewEncoder(w).Encode(db.MetricsRegistry().Snapshot())
			}
		})
		go func() {
			if err := http.ListenAndServe(cfg.metricsAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ode-server: metrics endpoint:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (JSON) and /debug/vars (expvar)\n", cfg.metricsAddr)
	}

	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)

	follow := cfg.replicaOf
	backoff := 500 * time.Millisecond
	for {
		started := time.Now()
		out := runOnce(cfg, follow, shutdown, usr1)
		if !out.restart {
			return out.code
		}
		follow = out.follow
		if out.wipe {
			fmt.Fprintln(os.Stderr, "ode-server: wiping local copy for full resync")
			if err := ode.RemoveFiles(cfg.dbPath); err != nil {
				fmt.Fprintf(os.Stderr, "ode-server: wipe for resync: %v\n", err)
				return exitFatal
			}
		}
		if time.Since(started) > time.Minute {
			backoff = 500 * time.Millisecond
		}
		fmt.Fprintf(os.Stderr, "ode-server: restarting in %v (following %q)\n", backoff, follow)
		select {
		case <-time.After(backoff):
		case s := <-shutdown:
			fmt.Fprintf(os.Stderr, "ode-server: %v during restart: exiting\n", s)
			return exitClean
		}
		if backoff *= 2; backoff > 10*time.Second {
			backoff = 10 * time.Second
		}
	}
}

// node is one run's mutable replication state: the replica handle
// changes across promote/demote/re-point without restarting the run.
type node struct {
	cfg  *config
	db   *ode.DB
	src  *repl.Source
	rmet *repl.Metrics
	mon  *repl.Monitor

	mu     sync.Mutex
	rep    *repl.Replica
	follow string

	repDied chan error // fatal replica errors (one per replica instance)

	outMu   sync.Mutex
	out     *outcome
	srvDown func()
}

// decide records the run's verdict once and tears the server down.
func (n *node) decide(o outcome) {
	n.outMu.Lock()
	first := n.out == nil
	if first {
		n.out = &o
	}
	n.outMu.Unlock()
	if first {
		n.srvDown()
	}
}

// startReplica begins following addr, retrying transient connect
// failures briefly (a freshly promoted primary may still be settling).
// The caller holds no locks.
func (n *node) startReplica(addr string) error {
	ropts := &repl.ReplicaOptions{HeartbeatTimeout: 4 * n.cfg.window}
	var err error
	for attempt, wait := 0, 200*time.Millisecond; attempt < 4; attempt, wait = attempt+1, wait*2 {
		rep := repl.NewReplica(n.db, addr, n.rmet, ropts)
		if err = rep.Start(); err == nil {
			n.mu.Lock()
			n.rep, n.follow = rep, addr
			n.mu.Unlock()
			go n.watchReplica(rep)
			return nil
		}
		if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
			return err
		}
		time.Sleep(wait)
	}
	return err
}

// watchReplica forwards one replica instance's fatal error to the run
// loop. A deliberate Stop (re-point, promote, shutdown) reports nil
// and is ignored.
func (n *node) watchReplica(rep *repl.Replica) {
	<-rep.Done()
	if err := rep.Err(); err != nil {
		n.repDied <- err
	}
}

// promote turns the node writable in place: detach, bump the fencing
// epoch durably, accept writes. Shared by SIGUSR1, the wire promote
// command, and the monitor's election win.
func (n *node) promote() error {
	n.mu.Lock()
	rep := n.rep
	n.rep, n.follow = nil, ""
	n.mu.Unlock()
	var epoch uint64
	var err error
	switch {
	case rep != nil:
		fmt.Fprintln(os.Stderr, "ode-server: promoting: detaching from primary, accepting writes")
		epoch, err = rep.Promote()
	case n.db.ReadOnly():
		// Booted read-only with no primary in sight (the seek state);
		// the election picked this node.
		fmt.Fprintln(os.Stderr, "ode-server: promoting: accepting writes")
		epoch, err = repl.PromoteDB(n.db, n.rmet)
	default:
		return nil // already primary
	}
	if err != nil {
		return fmt.Errorf("promote: epoch bump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ode-server: serving writes at epoch %d\n", epoch)
	if n.mon != nil {
		n.mon.SetRole("")
	}
	return nil
}

// repoint stops the current replica (if any) and follows addr instead.
func (n *node) repoint(addr string) error {
	n.mu.Lock()
	rep := n.rep
	n.rep = nil
	n.mu.Unlock()
	if rep != nil {
		rep.Stop()
	}
	n.db.SetReadOnly(true)
	return n.startReplica(addr)
}

// wipeRestart reports whether wiping is permitted, and if so records a
// wipe-and-restart verdict.
func (n *node) wipeRestart(follow string, why error) bool {
	if !n.cfg.resync && !n.cfg.auto {
		return false
	}
	fmt.Fprintf(os.Stderr, "ode-server: %v; scheduling wipe and resync from %q\n", why, follow)
	n.decide(outcome{restart: true, wipe: true, follow: follow})
	return true
}

// handleEvents is the run's failover event pump: monitor decisions,
// fatal replica errors, and operator signals all land here.
func (n *node) handleEvents(stop <-chan struct{}, usr1 <-chan os.Signal) {
	var events <-chan repl.Event
	if n.mon != nil {
		events = n.mon.Events()
	}
	for {
		select {
		case <-stop:
			return
		case <-usr1:
			if err := n.promote(); err != nil {
				fmt.Fprintln(os.Stderr, "ode-server:", err)
			}
		case ev := <-events:
			switch ev.Kind {
			case repl.EventPromoteSelf:
				if err := n.promote(); err != nil {
					fmt.Fprintln(os.Stderr, "ode-server:", err)
					n.mon.SetSeeking() // re-arm unattached; promotion failed
				}
			case repl.EventNewPrimary:
				fmt.Fprintf(os.Stderr, "ode-server: primary moved to %s (epoch %d); re-pointing\n", ev.Addr, ev.Epoch)
				if err := n.repoint(ev.Addr); err != nil {
					if !n.wipeRestart(ev.Addr, err) {
						fmt.Fprintln(os.Stderr, "ode-server: re-point failed:", err)
						n.mon.SetSeeking()
					}
				} else {
					n.mon.SetRole(ev.Addr)
				}
			case repl.EventDeposed:
				fmt.Fprintf(os.Stderr, "ode-server: deposed by %s at epoch %d; demoting to replica\n", ev.Addr, ev.Epoch)
				n.db.SetReadOnly(true)
				if err := n.repoint(ev.Addr); err != nil {
					// The usual case: this node's unreplicated tail forked
					// from the new history, so the new primary demands a
					// resync.
					if !n.wipeRestart(ev.Addr, err) {
						n.decide(outcome{code: exitRepl})
					}
				} else {
					n.mon.SetRole(ev.Addr)
				}
			}
		case err := <-n.repDied:
			follow := n.currentFollow()
			fmt.Fprintf(os.Stderr, "ode-server: replication stream died: %v\n", err)
			switch {
			case errors.Is(err, ode.ErrStaleEpoch) && n.mon != nil:
				// The node we followed is itself deposed; seek the real
				// primary (the seeker tick adopts it on first sight and
				// emits EventNewPrimary).
				n.mon.SetSeeking()
			case errors.Is(err, repl.ErrResyncRequired), errors.Is(err, ode.ErrStaleEpoch):
				if !n.wipeRestart(follow, err) {
					n.decide(outcome{code: exitRepl})
				}
			default:
				// Apply error: the local copy is suspect. Rebuilding from
				// a snapshot is the self-healing answer when permitted;
				// otherwise keep serving (increasingly stale) reads, as
				// before.
				if !n.wipeRestart(follow, err) {
					fmt.Fprintln(os.Stderr, "ode-server: replication stopped; serving stale reads (restart with -resync to rebuild)")
				}
			}
		}
	}
}

func (n *node) currentFollow() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.follow
}

// runOnce opens the database and serves it until shutdown or a verdict
// that needs a fresh database (wipe-and-resync). follow is the primary
// to subscribe to, "" to serve as primary (subject to the boot-time
// peer scan under -auto-failover).
func runOnce(cfg *config, follow string, shutdown, usr1 <-chan os.Signal) outcome {
	db, err := ode.Open(cfg.dbPath, cfg.schema, &ode.Options{
		PoolPages:       cfg.poolPages,
		ObjectCacheSize: cfg.cacheSize,
		NoSync:          cfg.noSync,
		MaxConcurrentTx: cfg.maxTx,
		MaxQueuedTx:     cfg.maxQueued,
		WALSoftLimit:    cfg.walSoft,
		WALHardLimit:    cfg.walHard,
		ShardSlot:       cfg.shardSlot,
		ShardCount:      cfg.shardCount,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ode-server:", err)
		return outcome{code: exitFatal}
	}
	defer db.Close()
	curDB.Store(db)
	// Classes served for remote pnew need their clusters; create any
	// that are missing (idempotent across restarts). DDL is not
	// replicated — each node, replica or primary, creates its own.
	for _, c := range db.Schema().Classes() {
		if !db.HasCluster(c) {
			if err := db.CreateCluster(c); err != nil {
				fmt.Fprintf(os.Stderr, "ode-server: create cluster %s: %v\n", c.Name, err)
				return outcome{code: exitFatal}
			}
		}
	}

	// Boot-time peer scan: a restarted (possibly deposed) node must not
	// come up writable while the group has a primary at its epoch or
	// newer — and under auto-failover it must never self-crown at all.
	// A crashed replica restarting inside a partition holds the epoch it
	// adopted from the live primary; coming up writable there would put
	// two writers on one epoch, the exact split-brain fencing exists to
	// prevent. So: join a visible primary, else boot read-only in the
	// seek state and let the quorum election decide who serves writes.
	seeking := false
	if cfg.auto && follow == "" {
		// Of the visible primaries, join the one at the highest epoch: a
		// deposed primary that has not noticed yet is writable too, at a
		// stale epoch, and joining it would resync onto fenced history.
		var bestEpoch uint64
		for _, p := range cfg.peers {
			st, err := repl.Probe(p, 2*time.Second)
			if err == nil && !st.ReadOnly && st.Epoch >= db.Epoch() && (follow == "" || st.Epoch > bestEpoch) {
				follow, bestEpoch = p, st.Epoch
			}
		}
		if follow != "" {
			fmt.Fprintf(os.Stderr, "ode-server: peer %s is primary at epoch %d; joining as replica\n", follow, bestEpoch)
		}
		if follow == "" {
			fmt.Fprintln(os.Stderr, "ode-server: no primary visible; booting read-only until the group elects one")
			db.SetReadOnly(true)
			seeking = true
		}
	}

	n := &node{cfg: cfg, db: db, repDied: make(chan error, 4)}
	n.rmet = &repl.Metrics{}
	n.rmet.Attach(db.MetricsRegistry())
	n.src = repl.NewSource(db, n.rmet, &repl.SourceOptions{
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "ode-server: "+format+"\n", args...) },
	})
	defer n.src.Close()

	if follow != "" {
		if err := n.startReplica(follow); err != nil {
			if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
				if cfg.resync || cfg.auto {
					return outcome{restart: true, wipe: true, follow: follow}
				}
				fmt.Fprintf(os.Stderr, "ode-server: %v (restart with -resync to wipe and bootstrap)\n", err)
				return outcome{code: exitRepl}
			}
			fmt.Fprintln(os.Stderr, "ode-server:", err)
			return outcome{code: exitFatal}
		}
	}

	srv := server.New(db, &server.Options{
		MaxConns:        cfg.maxConns,
		MaxDeadline:     cfg.maxDeadline,
		DrainTimeout:    cfg.drain,
		Repl:            n.src,
		CommitAckQuorum: cfg.ackQuorum,
		AckTimeout:      cfg.ackTimeout,
		Advertise:       cfg.advertise,
		Promote:         n.promote,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	n.srvDown = func() { srv.Close() }

	// The listen address may still be held by this process's previous
	// incarnation for a moment after a restart; retry briefly.
	var lnAddr net.Addr
	for attempt := 0; ; attempt++ {
		lnAddr, err = srv.Listen(cfg.addr)
		if err == nil {
			break
		}
		if attempt >= 20 {
			fmt.Fprintln(os.Stderr, "ode-server:", err)
			return outcome{code: exitFatal}
		}
		time.Sleep(250 * time.Millisecond)
	}
	role := "primary"
	if follow != "" {
		role = "replica of " + follow
	} else if seeking {
		role = "read-only, seeking primary"
	}
	fmt.Printf("ode-server: serving %s on %s (%s, max-conns %d, drain %v)\n", cfg.dbPath, lnAddr, role, cfg.maxConns, cfg.drain)

	if cfg.auto {
		n.mon = repl.NewMonitor(db, n.rmet, &repl.MonitorOptions{
			Self:   cfg.advertise,
			Peers:  cfg.peers,
			Window: cfg.window,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ode-server: "+format+"\n", args...)
			},
		})
		if seeking {
			// Seek state: no stream attached. The seeker tick adopts the
			// first writable peer it sees; with nobody writable the
			// window expires and the deterministic election decides.
			n.mon.SetSeeking()
		} else {
			n.mon.SetRole(follow)
		}
		n.mon.Start()
		defer n.mon.Stop()
	}

	stop := make(chan struct{})
	go n.handleEvents(stop, usr1)
	go func() {
		select {
		case s := <-shutdown:
			fmt.Fprintf(os.Stderr, "ode-server: %v: draining...\n", s)
			n.decide(outcome{code: exitClean})
		case <-stop:
		}
	}()

	serveErr := srv.Serve(nil)
	close(stop)
	n.mu.Lock()
	rep := n.rep
	n.rep = nil
	n.mu.Unlock()
	if rep != nil {
		rep.Stop() // stop applying before the deferred db.Close
	}

	n.outMu.Lock()
	out := n.out
	n.outMu.Unlock()
	if out == nil {
		if serveErr != nil && serveErr != server.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ode-server:", serveErr)
			return outcome{code: exitFatal}
		}
		out = &outcome{code: exitClean}
	}
	if !out.restart && out.code == exitClean {
		fmt.Println("ode-server: shut down cleanly")
	}
	return *out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ode-server:", err)
	os.Exit(exitFatal)
}
