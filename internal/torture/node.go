package torture

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ode"
	"ode/internal/failpoint"
	"ode/internal/repl"
	"ode/internal/server"
	"ode/internal/wal"
)

// node is one store's lifecycle, shared by every torture mode: open it
// with the torture DDL, serve it on a stable address, crash it, wipe
// it, and digest its state. A restart is crash followed by open (or
// reopen) and serve; the address survives so clients and peers redial
// the same endpoint.
type node struct {
	path  string
	addr  string // listen address, stable across restarts ("" before the first serve)
	db    *ode.DB
	stock *ode.Class     // this open's schema instance
	src   *repl.Source   // optional WAL source; set by the caller, closed with the server
	srv   *server.Server // nil while not serving
}

// smallWAL opens the replicated nodes (repl, netchaos) with WAL bounds
// small enough that checkpoints (and so WAL truncation, against the
// retention gate) run constantly during the test.
var smallWAL = &ode.Options{
	PoolPages:    48,
	WALSoftLimit: 32 << 10,
	WALHardLimit: 256 << 10,
}

// open makes one attempt to open the store and ensure the torture DDL:
// the stockitem cluster and its qty index. The DDL is idempotent
// because a fault may have crashed an earlier attempt between the two;
// a DDL error crash-closes the store so no half-open handle leaks.
// created reports whether either had to be made, so a caller that
// expects an existing store can tell a recovery that lost the DDL from
// one that kept it.
func (n *node) open(opts *ode.Options) (created bool, err error) {
	schema, stock := Schema()
	db, err := ode.Open(n.path, schema, opts)
	if err != nil {
		return false, err
	}
	if !db.HasCluster(stock) {
		created, err = true, db.CreateCluster(stock)
	}
	if err == nil && !db.Manager().HasIndex(stock, "qty") {
		created, err = true, db.CreateIndex(stock, "qty")
	}
	if err != nil {
		db.CrashForTesting()
		return created, err
	}
	n.db, n.stock = db, stock
	return created, nil
}

// reopen is open retried while the round's armed one-shot fault fires
// inside recovery or DDL: the shot is spent as it fires, so a later
// attempt runs clean. Recovery under injected faults is exactly what
// the crash/reopen cycle is for.
func (n *node) reopen(opts *ode.Options) error {
	for attempt := 0; ; attempt++ {
		_, err := n.open(opts)
		if err == nil || !errors.Is(err, failpoint.ErrInjected) || attempt >= 4 {
			return err
		}
	}
}

// serve starts a wire server for the open store on the node's stable
// address (a free loopback port at first boot). Rebinding a port that
// was just closed can fail transiently, so Listen retries for 5 s.
func (n *node) serve(opts *server.Options) error {
	srv := server.New(n.db, opts)
	want := n.addr
	if want == "" {
		want = "127.0.0.1:0"
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		addr, err := srv.Listen(want)
		if err == nil {
			n.addr, n.srv = addr.String(), srv
			go srv.Serve(nil)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rebind %s: %w", want, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopServing takes the server down (draining in-flight requests) and
// detaches the WAL source, leaving the store open.
func (n *node) stopServing() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.src != nil {
		n.src.Close()
	}
	n.srv, n.src = nil, nil
}

// crash kills the node process-style: server down, source detached,
// and every dirty in-memory state dropped, so only what disk holds
// survives into the next open.
func (n *node) crash() {
	n.stopServing()
	if n.db != nil {
		n.db.CrashForTesting()
	}
	n.db = nil
}

// close shuts the node down cleanly (the end of a run).
func (n *node) close() error {
	n.stopServing()
	var err error
	if n.db != nil {
		err = n.db.Close()
	}
	n.db = nil
	return err
}

// wipe discards the store entirely, so the next open starts empty. The
// files are about to be deleted, so the store is dropped crash-style: a
// clean Close would checkpoint through any still-armed failpoint for
// nothing.
func (n *node) wipe() error {
	n.crash()
	return ode.RemoveFiles(n.path)
}

// digest hashes the store's full replicated state: every snapshot op
// (current images and frozen versions, the exact bytes a resync would
// ship) plus the secondary index extent. Lines are sorted so the hash
// is order-independent. Both replication modes use it as their
// byte-level convergence check.
func (n *node) digest() (string, error) {
	var lines []string
	err := n.db.Manager().SnapshotOps(func(op *wal.Op) error {
		lines = append(lines, fmt.Sprintf("op %d @%d v%d c%d %x", op.Type, op.OID, op.Version, op.ClassID, op.Image))
		return nil
	})
	if err != nil {
		return "", err
	}
	idx, err := n.db.Manager().IndexOIDs(n.stock, "qty", ode.Null, ode.Null)
	if err != nil {
		return "", err
	}
	for _, oid := range idx {
		lines = append(lines, fmt.Sprintf("idx @%d", oid))
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:]), nil
}
