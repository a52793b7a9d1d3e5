// Package txn implements transactions for an Ode database: strict
// two-phase locking at object granularity with deadlock detection,
// private write buffering (no-steal), and a commit that appends the
// transaction's logical operations to the WAL and applies them to the
// object manager.
//
// The paper sets transactions aside ("any O++ program that interacts
// with the database will be considered to be a single transaction") but
// its trigger semantics — independent weakly-coupled action
// transactions, aborted with their triggering transaction — require a
// real transaction mechanism, so this package provides one.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ode/internal/core"
	"ode/internal/obs"
)

// LockMode is shared (read) or exclusive (write).
type LockMode uint8

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

func (m LockMode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrDeadlock is returned to a transaction chosen as deadlock victim;
// the caller must abort it.
var ErrDeadlock = errors.New("txn: deadlock detected; transaction chosen as victim")

// LockManager implements strict 2PL over OIDs with waits-for-graph
// deadlock detection (the victim is the requester that would close a
// cycle). Waits are cancellable: a blocked Acquire observes its
// context and abandons the wait on deadline expiry or cancellation.
//
// Lock words are sized for scans that take tens of thousands of S
// locks: a word keeps its first holder inline and allocates nothing
// more until a second holder or a waiter arrives, words are carved
// from slabs, and each transaction's held list makes ReleaseAll cost
// O(locks held) instead of a walk of the whole table.
type LockManager struct {
	mu       sync.Mutex
	locks    map[core.OID]*lockState
	held     map[uint64][]core.OID      // txid -> OIDs it holds, in grant order
	waitsFor map[uint64]map[uint64]bool // txid -> the txids it waits on
	slab     []lockState                // unused lock words
	met      *obs.TxnMetrics            // never nil; Engine.SetMetrics swaps it
}

// lockSlab is how many lock words one allocation provides.
const lockSlab = 64

// lockState is one OID's lock word. Instead of a sync.Cond — whose
// Wait cannot be raced against a context — release is broadcast by
// closing the wake channel; a waiter snapshots the channel under lm.mu
// and then selects on it against its context's Done channel. The
// channel exists only while someone waits.
type lockState struct {
	owned     bool                // tx/mode name a holder
	tx        uint64              // first holder
	mode      LockMode            // its mode
	more      map[uint64]LockMode // further (shared) holders; nil until needed
	waiting   int
	upgrading int // holders among the waiters, waiting for S -> X
	wake      chan struct{}
}

// holding reports txid's mode on the word.
func (ls *lockState) holding(txid uint64) (LockMode, bool) {
	if ls.owned && ls.tx == txid {
		return ls.mode, true
	}
	m, ok := ls.more[txid]
	return m, ok
}

// holders counts the transactions holding the word.
func (ls *lockState) holders() int {
	if !ls.owned {
		return 0
	}
	return 1 + len(ls.more)
}

// exclusive reports whether some holder has the word in X mode.
func (ls *lockState) exclusive() bool {
	// An X holder is always the only holder, so it sits inline.
	return ls.owned && ls.mode == Exclusive
}

func (ls *lockState) add(txid uint64, mode LockMode) {
	if !ls.owned {
		ls.owned, ls.tx, ls.mode = true, txid, mode
		return
	}
	if ls.more == nil {
		ls.more = make(map[uint64]LockMode)
	}
	ls.more[txid] = mode
}

// remove drops txid's hold, promoting another holder inline.
func (ls *lockState) remove(txid uint64) {
	if !ls.owned || ls.tx != txid {
		delete(ls.more, txid)
		return
	}
	ls.owned = false
	for h, m := range ls.more {
		delete(ls.more, h)
		ls.owned, ls.tx, ls.mode = true, h, m
		return
	}
}

// NewLockManager returns an empty lock table.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:    make(map[core.OID]*lockState),
		held:     make(map[uint64][]core.OID),
		waitsFor: make(map[uint64]map[uint64]bool),
		met:      &obs.TxnMetrics{},
	}
}

// word returns oid's lock word, creating it. Caller holds lm.mu.
func (lm *LockManager) word(oid core.OID) *lockState {
	ls, ok := lm.locks[oid]
	if !ok {
		if len(lm.slab) == 0 {
			lm.slab = make([]lockState, lockSlab)
		}
		ls = &lm.slab[0]
		lm.slab = lm.slab[1:]
		lm.locks[oid] = ls
	}
	return ls
}

// grant takes (or upgrades to) mode for txid on ls if that is
// compatible now, reporting whether the request is satisfied. Caller
// holds lm.mu.
func (lm *LockManager) grant(txid uint64, oid core.OID, ls *lockState, mode LockMode) bool {
	if held, ok := ls.holding(txid); ok {
		if held == Exclusive || mode == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X: only as the sole holder, which sits inline.
		if ls.holders() == 1 {
			ls.mode = Exclusive
			return true
		}
		return false
	}
	// A new S holder would starve a pending upgrade: the upgrader needs
	// every other holder gone, and readers that keep arriving (and then
	// lose the upgrade race as deadlock victims) would never let that
	// happen. So new readers queue behind it.
	if ls.exclusive() || ls.upgrading > 0 || (mode == Exclusive && ls.holders() > 0) {
		return false
	}
	ls.add(txid, mode)
	lm.held[txid] = append(lm.held[txid], oid)
	return true
}

// Acquire takes (or upgrades to) the given lock for tx on oid, blocking
// until compatible, until the request would deadlock (ErrDeadlock), or
// until ctx expires (ErrTxTimeout) or is canceled (ErrCanceled).
// Re-acquiring a held lock (same or weaker mode) is a no-op. ctx must
// be non-nil (use context.Background for an unbounded wait).
func (lm *LockManager) Acquire(ctx context.Context, txid uint64, oid core.OID, mode LockMode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.acquireLocked(ctx, txid, oid, mode)
}

// AcquireAll takes mode on every OID in oids for txid. Compatible
// requests are granted together in one critical section; the first
// conflicting OID falls back to Acquire's blocking path (deadlock
// detection and context handling included), after which granting
// resumes. On error the locks granted so far stay held, as they would
// after the same sequence of Acquire calls.
func (lm *LockManager) AcquireAll(ctx context.Context, txid uint64, oids []core.OID, mode LockMode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, oid := range oids {
		if ls := lm.word(oid); !lm.grant(txid, oid, ls, mode) {
			if err := lm.acquireLocked(ctx, txid, oid, mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// acquireLocked is Acquire with lm.mu held; it releases lm.mu while it
// sleeps.
func (lm *LockManager) acquireLocked(ctx context.Context, txid uint64, oid core.OID, mode LockMode) error {
	ls := lm.word(oid)
	for {
		if lm.grant(txid, oid, ls, mode) {
			return nil
		}
		// Must wait: record edges and check for a cycle.
		blockers := make(map[uint64]bool)
		if ls.tx != txid {
			blockers[ls.tx] = true
		}
		for h := range ls.more {
			if h != txid {
				blockers[h] = true
			}
		}
		lm.waitsFor[txid] = blockers
		if lm.cycleFrom(txid) {
			delete(lm.waitsFor, txid)
			lm.dropIfIdle(oid, ls)
			lm.met.Deadlocks.Inc()
			return fmt.Errorf("%w (tx %d on @%d %s)", ErrDeadlock, txid, oid, mode)
		}
		// An already-dead context must not sleep at all.
		if err := ctx.Err(); err != nil {
			delete(lm.waitsFor, txid)
			lm.dropIfIdle(oid, ls)
			lm.met.LockWaitTimeouts.Inc()
			return fmt.Errorf("%w (tx %d on @%d %s)", FromContextErr(err), txid, oid, mode)
		}
		lm.met.LockWaits.Inc()
		_, upgrade := ls.holding(txid)
		if upgrade {
			ls.upgrading++
		}
		ls.waiting++
		if ls.wake == nil {
			ls.wake = make(chan struct{})
		}
		wake := ls.wake
		lm.mu.Unlock()
		var ctxErr error
		select {
		case <-wake:
		case <-ctx.Done():
			ctxErr = ctx.Err()
		}
		lm.mu.Lock()
		ls.waiting--
		if upgrade {
			ls.upgrading--
		}
		delete(lm.waitsFor, txid)
		if ctxErr != nil {
			if upgrade {
				lm.wakeAll(ls) // readers queued behind the upgrade may go
			}
			lm.dropIfIdle(oid, ls)
			lm.met.LockWaitTimeouts.Inc()
			return fmt.Errorf("%w (tx %d on @%d %s)", FromContextErr(ctxErr), txid, oid, mode)
		}
	}
}

// wakeAll wakes every waiter on ls to re-check its request. Caller
// holds lm.mu.
func (lm *LockManager) wakeAll(ls *lockState) {
	if ls.wake != nil {
		// Broadcast: every waiter snapshotted this channel.
		close(ls.wake)
		ls.wake = nil
	}
}

// dropIfIdle removes oid's lock word when nothing holds or waits on it
// any more (a wait abandoned on the last reference must not leak the
// entry). Caller holds lm.mu.
func (lm *LockManager) dropIfIdle(oid core.OID, ls *lockState) {
	if !ls.owned && ls.waiting == 0 {
		delete(lm.locks, oid)
	}
}

// cycleFrom reports whether following waits-for edges from start
// returns to start. Caller holds lm.mu.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		for v := range lm.waitsFor[u] {
			if v == start {
				return true
			}
			if !seen[v] {
				seen[v] = true
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// ReleaseAll drops every lock tx holds and wakes waiters. Called once
// at commit or abort (strict 2PL: no early release).
func (lm *LockManager) ReleaseAll(txid uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	delete(lm.waitsFor, txid)
	for _, oid := range lm.held[txid] {
		ls := lm.locks[oid]
		ls.remove(txid)
		lm.wakeAll(ls)
		lm.dropIfIdle(oid, ls)
	}
	delete(lm.held, txid)
}

// HeldLocks reports the locks a transaction currently holds (tests).
func (lm *LockManager) HeldLocks(txid uint64) map[core.OID]LockMode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out := make(map[core.OID]LockMode)
	for _, oid := range lm.held[txid] {
		if m, ok := lm.locks[oid].holding(txid); ok {
			out[oid] = m
		}
	}
	return out
}

// TableSize reports how many OIDs currently have lock words (tests:
// abandoned waits must not leak entries).
func (lm *LockManager) TableSize() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.locks)
}

// Waiting reports how many waiters are blocked on oid (tests).
func (lm *LockManager) Waiting(oid core.OID) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if ls, ok := lm.locks[oid]; ok {
		return ls.waiting
	}
	return 0
}
