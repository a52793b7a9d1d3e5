package txn

import (
	"context"
	"errors"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
)

// Edge paths of the lock manager: upgrades racing upgrades, victim
// selection with bystander waiters, and the accounting left behind by
// abandoned (canceled / timed-out) waits. Run with -race.

func lockWaitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Two transactions both hold S and both request the upgrade to X. One
// must lose the deadlock (each waits on the other); after the victim
// releases, the survivor's upgrade completes.
func TestUpgradeRaceConcurrentUpgraders(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(7)
	if err := lm.Acquire(bg, 1, oid, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, oid, Shared); err != nil {
		t.Fatal(err)
	}

	first := make(chan error, 1)
	go func() { first <- lm.Acquire(bg, 1, oid, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })

	// The second upgrader closes the cycle and is the victim.
	err := lm.Acquire(bg, 2, oid, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2) // victim aborts

	if err := <-first; err != nil {
		t.Fatalf("surviving upgrader = %v, want nil", err)
	}
	if got := lm.HeldLocks(1)[oid]; got != Exclusive {
		t.Fatalf("survivor holds %v, want X", got)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after all releases, want 0", n)
	}
}

// Victim selection must not disturb bystanders: tx3 is queued on a
// lock involved in a tx1/tx2 cycle. tx2 (the requester that closes the
// cycle) is the victim; tx1 and tx3 both complete.
func TestDeadlockVictimSparesQueuedBystander(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const a, b = core.OID(1), core.OID(2)
	if err := lm.Acquire(bg, 1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, b, Exclusive); err != nil {
		t.Fatal(err)
	}

	// tx3: bystander queued on a, blocked by tx1.
	bystander := make(chan error, 1)
	go func() { bystander <- lm.Acquire(bg, 3, a, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(a) == 1 })

	// tx1 blocks on b (held by tx2)...
	cross := make(chan error, 1)
	go func() { cross <- lm.Acquire(bg, 1, b, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(b) == 1 })

	// ...and tx2 requesting a closes the cycle tx2 -> tx1 -> tx2.
	err := lm.Acquire(bg, 2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle-closing request = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2)

	if err := <-cross; err != nil {
		t.Fatalf("tx1 after victim released = %v, want nil", err)
	}
	lm.ReleaseAll(1)
	if err := <-bystander; err != nil {
		t.Fatalf("bystander = %v, want nil", err)
	}
	if got := lm.HeldLocks(3)[a]; got != Shared {
		t.Fatalf("bystander holds %v, want S", got)
	}
	lm.ReleaseAll(3)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after all releases, want 0", n)
	}
}

// A canceled wait must roll its bookkeeping back: the waiting counter
// returns to zero, the waiter holds nothing, and once the holder
// releases, the table entry is gone.
func TestCanceledWaitAccounting(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(9)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	waiter := make(chan error, 1)
	go func() { waiter <- lm.Acquire(ctx, 2, oid, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })

	cancel()
	err := <-waiter
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled wait = %v, want ErrCanceled", err)
	}
	if n := lm.Waiting(oid); n != 0 {
		t.Fatalf("Waiting = %d after canceled wait, want 0", n)
	}
	if held := lm.HeldLocks(2); len(held) != 0 {
		t.Fatalf("canceled waiter holds %v, want nothing", held)
	}
	if n := lm.TableSize(); n != 1 {
		t.Fatalf("lock table holds %d entries (holder still live), want 1", n)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after holder released, want 0", n)
	}
}

// A wait that times out on the deadline returns ErrTxTimeout and the
// lock stays acquirable by others.
func TestTimedOutWaitReturnsTimeout(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(3)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if err := lm.Acquire(ctx, 2, oid, Shared); !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("timed-out wait = %v, want ErrTxTimeout", err)
	}
	lm.ReleaseAll(1)
	// The object is free again.
	if err := lm.Acquire(bg, 3, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
}

// An already-dead context fast-fails before sleeping and must not leak
// waits-for edges or waiting counts.
func TestDeadContextFastFails(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(4)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	if err := lm.Acquire(ctx, 2, oid, Shared); !errors.Is(err, ErrCanceled) {
		t.Fatalf("dead-context acquire = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("dead-context acquire slept %v, want immediate return", elapsed)
	}
	if n := lm.Waiting(oid); n != 0 {
		t.Fatalf("Waiting = %d, want 0", n)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries, want 0", n)
	}
}

// Lock words live in groups of 64 consecutive OIDs. Releasing every
// lock empties the table: no group outlives its last live word, and the
// idle groups kept for reuse stay within their bound.
func TestReleaseAllEmptiesLockGroups(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	// Stride 7 spreads 10 000 OIDs over more groups than the free list
	// keeps, and a second transaction shares every 10th word.
	var mine, shared []core.OID
	for i := 0; i < 10_000; i++ {
		oid := core.OID(1 + 7*i)
		mine = append(mine, oid)
		if i%10 == 0 {
			shared = append(shared, oid)
		}
	}
	if err := lm.AcquireAll(bg, 1, mine, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.AcquireAll(bg, 2, shared, Shared); err != nil {
		t.Fatal(err)
	}
	if n := lm.TableSize(); n != len(mine) {
		t.Fatalf("lock table holds %d words, want %d", n, len(mine))
	}
	if len(lm.groups) <= maxFree {
		t.Fatalf("%d groups: too few to test the free-list bound", len(lm.groups))
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != len(shared) {
		t.Fatalf("lock table holds %d words with tx 2 alone, want %d", n, len(shared))
	}
	lm.ReleaseAll(2)
	if n, g := lm.TableSize(), len(lm.groups); n != 0 || g != 0 {
		t.Fatalf("after all releases: %d words in %d groups, want none", n, g)
	}
	if len(lm.free) > maxFree {
		t.Fatalf("%d idle groups kept, bound %d", len(lm.free), maxFree)
	}
	// Reused groups come back clean.
	if err := lm.AcquireAll(bg, 3, mine, Exclusive); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
	if n, g := lm.TableSize(), len(lm.groups); n != 0 || g != 0 {
		t.Fatalf("after reuse: %d words in %d groups, want none", n, g)
	}
}

// A wait that times out, is canceled, or loses a deadlock leaves its
// word's group to the holder alone; once the holder releases, no group
// is left.
func TestAbandonedWaitsLeaveNoGroup(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const a, b = core.OID(130), core.OID(300) // two groups
	if err := lm.Acquire(bg, 1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	timed, cancelTimed := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancelTimed()
	if err := lm.Acquire(timed, 3, a, Shared); !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("timed-out wait = %v, want ErrTxTimeout", err)
	}
	ctx, cancel := context.WithCancel(bg)
	waiter := make(chan error, 1)
	go func() { waiter <- lm.Acquire(ctx, 3, b, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(b) == 1 })
	cancel()
	if err := <-waiter; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled wait = %v, want ErrCanceled", err)
	}
	// tx 1 waits on b; tx 2 asking for a closes the cycle.
	cross := make(chan error, 1)
	go func() { cross <- lm.Acquire(bg, 1, b, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(b) == 1 })
	if err := lm.Acquire(bg, 2, a+1, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, a, Shared); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle-closing request = %v, want ErrDeadlock", err)
	}
	if n, g := lm.TableSize(), len(lm.groups); n != 3 || g != 2 {
		t.Fatalf("with the holders live: %d words in %d groups, want 3 in 2", n, g)
	}
	lm.ReleaseAll(2)
	if err := <-cross; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	if n, g := lm.TableSize(), len(lm.groups); n != 0 || g != 0 {
		t.Fatalf("after all releases: %d words in %d groups, want none", n, g)
	}
}

// A waiter asleep on one word keeps its group in the table while the
// other 63 words of the group go idle, and is then granted.
func TestWaiterKeepsItsGroup(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const base = core.OID(64) // the group of OIDs 64..127
	if err := lm.Acquire(bg, 1, base, Exclusive); err != nil {
		t.Fatal(err)
	}
	var rest []core.OID
	for oid := base + 1; oid < base+64; oid++ {
		rest = append(rest, oid)
	}
	if err := lm.AcquireAll(bg, 2, rest, Shared); err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() { waiter <- lm.Acquire(bg, 3, base, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(base) == 1 })
	lm.ReleaseAll(2)
	if n, g := lm.TableSize(), len(lm.groups); n != 1 || g != 1 {
		t.Fatalf("with one word held and waited on: %d words in %d groups, want 1 in 1", n, g)
	}
	lm.ReleaseAll(1)
	if err := <-waiter; err != nil {
		t.Fatalf("waiter = %v, want nil", err)
	}
	if got := lm.HeldLocks(3)[base]; got != Shared {
		t.Fatalf("waiter holds %v, want S", got)
	}
	lm.ReleaseAll(3)
	if n, g := lm.TableSize(), len(lm.groups); n != 0 || g != 0 {
		t.Fatalf("after all releases: %d words in %d groups, want none", n, g)
	}
}

// A pending S -> X upgrade makes new readers queue behind it (so
// readers that keep arriving cannot starve it); when the upgrade gives
// up on its deadline instead, the queued reader is let in at once.
func TestPendingUpgradeQueuesNewReaders(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(5)
	for _, tx := range []uint64{1, 2} {
		if err := lm.Acquire(bg, tx, oid, Shared); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	upgrade := make(chan error, 1)
	go func() { upgrade <- lm.Acquire(ctx, 1, oid, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })

	reader := make(chan error, 1)
	go func() { reader <- lm.Acquire(bg, 3, oid, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 2 })

	cancel()
	if err := <-upgrade; !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned upgrade = %v, want ErrCanceled", err)
	}
	select {
	case err := <-reader:
		if err != nil {
			t.Fatalf("queued reader = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued reader still waits after the upgrade gave up")
	}
	for _, tx := range []uint64{1, 2, 3} {
		if got := lm.HeldLocks(tx)[oid]; got != Shared {
			t.Fatalf("tx %d holds %v, want S", tx, got)
		}
		lm.ReleaseAll(tx)
	}
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries, want 0", n)
	}
}

// A reader that already holds locks is granted past a pending upgrade:
// queueing it could close a cycle. R1/W1 share a, R2/W2 share b, and
// both writers wait to upgrade. If R1's S(b) queued behind W2 and R2's
// S(a) behind W1, then R1 -> W2 -> R2 -> W1 -> R1 would deadlock two
// read-only transactions. Both are granted; once the readers finish,
// both upgrades complete.
func TestHoldingReaderPassesPendingUpgrade(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const a, b = core.OID(1), core.OID(2)
	const w1, w2, r1, r2 = 1, 2, 10, 11
	for _, g := range []struct {
		tx  uint64
		oid core.OID
	}{{r1, a}, {w1, a}, {r2, b}, {w2, b}} {
		if err := lm.Acquire(bg, g.tx, g.oid, Shared); err != nil {
			t.Fatal(err)
		}
	}
	upgrades := make(chan error, 2)
	go func() { upgrades <- lm.Acquire(bg, w1, a, Exclusive) }()
	go func() { upgrades <- lm.Acquire(bg, w2, b, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(a) == 1 && lm.Waiting(b) == 1 })

	reads := make(chan error, 2)
	go func() { reads <- lm.Acquire(bg, r1, b, Shared) }()
	go func() { reads <- lm.Acquire(bg, r2, a, Shared) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-reads:
			if err != nil {
				t.Fatalf("reader holding a lock = %v, want granted", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("reader holding a lock queued behind a pending upgrade")
		}
	}
	lm.ReleaseAll(r1)
	lm.ReleaseAll(r2)
	for i := 0; i < 2; i++ {
		if err := <-upgrades; err != nil {
			t.Fatalf("upgrade after readers left = %v, want nil", err)
		}
	}
	lm.ReleaseAll(w1)
	lm.ReleaseAll(w2)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries, want 0", n)
	}
}

// --- Governor ----------------------------------------------------------

func TestGovernorSlotsQueueReject(t *testing.T) {
	met := &obs.TxnMetrics{}
	g := NewGovernor(2, 1, met)
	bg := context.Background()
	if got := g.Capacity(); got != 2 {
		t.Fatalf("Capacity = %d, want 2", got)
	}
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	if got := g.Active(); got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}

	// Third caller queues...
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(bg) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })

	// ...fourth overflows the queue and is rejected immediately.
	if err := g.Acquire(bg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire = %v, want ErrOverloaded", err)
	}
	if got := met.AdmissionRejects.Load(); got != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", got)
	}

	// A release admits the queued caller.
	g.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire = %v, want nil", err)
	}
	if got := met.AdmissionQueued.Load(); got != 0 {
		t.Fatalf("AdmissionQueued = %d after admit, want 0", got)
	}
	g.Release()
	g.Release()
	if got := g.Active(); got != 0 {
		t.Fatalf("Active = %d after releases, want 0", got)
	}
	if got := met.AdmissionActive.Load(); got != 0 {
		t.Fatalf("AdmissionActive gauge = %d, want 0", got)
	}
}

func TestGovernorNoQueueRejectsImmediately(t *testing.T) {
	g := NewGovernor(1, 0, nil)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Acquire(bg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("no-queue acquire = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("rejection took %v, want immediate", elapsed)
	}
	g.Release()
}

func TestGovernorCancelWhileQueued(t *testing.T) {
	met := &obs.TxnMetrics{}
	g := NewGovernor(1, 4, met)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(ctx) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued acquire = %v, want ErrCanceled", err)
	}
	if got := met.AdmissionQueued.Load(); got != 0 {
		t.Fatalf("AdmissionQueued = %d after canceled wait, want 0", got)
	}

	// The abandoned queue spot is reusable: a fresh waiter queues and is
	// admitted on release.
	again := make(chan error, 1)
	go func() { again <- g.Acquire(bg) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })
	g.Release()
	if err := <-again; err != nil {
		t.Fatalf("requeued acquire = %v, want nil", err)
	}
	g.Release()
}

func TestGovernorDeadlineWhileQueued(t *testing.T) {
	g := NewGovernor(1, 4, nil)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("queued-past-deadline acquire = %v, want ErrTxTimeout", err)
	}
	g.Release()
}
