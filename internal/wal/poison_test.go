package wal

import (
	"errors"
	"sync"
	"testing"

	"ode/internal/failpoint"
)

// TestFsyncFailurePoisonsLog is the regression test for the fsync-
// error ambiguity: after one failed Sync the log must refuse every
// subsequent append, sync, and truncation with a typed ErrWALPoisoned
// (a failed fsync leaves kernel durability state unknown, so retrying
// against the same file descriptor could ack a commit the disk never
// got). Only a reopen — which re-reads what is actually on disk —
// clears the poison.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	l, path := openTestLog(t)
	if err := l.Append(1, []Op{put(10, "a")}); err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Arm("wal.fsync", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()

	err := l.Append(2, []Op{put(11, "b")})
	if err == nil {
		t.Fatal("append with failing fsync reported success")
	}
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("first failure: err=%v, want ErrWALPoisoned", err)
	}
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("first failure must carry the root cause: %v", err)
	}

	// The failpoint was one-shot: the next fsync would succeed. The log
	// must refuse anyway — that is the whole point.
	if err := l.Append(3, []Op{put(12, "c")}); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("append after poison: err=%v, want ErrWALPoisoned", err)
	}
	if err := l.SyncAll(); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("sync after poison: err=%v, want ErrWALPoisoned", err)
	}
	if err := l.Truncate(); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("truncate after poison: err=%v, want ErrWALPoisoned", err)
	}

	// Reopen re-reads disk state and recovers.
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(4, []Op{put(13, "d")}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	// Batch 1 committed before the fault and must have survived; the
	// poisoned batches may or may not be present (their fsync never
	// succeeded), which is exactly the uncertainty the poison reports.
	saw := map[uint64]bool{}
	if err := l2.Replay(func(op *Op) error { saw[op.TxID] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !saw[1] || !saw[4] {
		t.Fatalf("acked batches lost across reopen: %v", saw)
	}
}

// TestGroupCommitConcurrent drives parallel committers through the
// stage/sync protocol and checks the accounting: every append is
// durable, every commit is covered by exactly one shared fsync, and
// the group counters add up.
func TestGroupCommitConcurrent(t *testing.T) {
	l, path := openTestLog(t)

	const (
		workers = 8
		each    = 10
	)
	var wg sync.WaitGroup
	// StageRaw's contract requires the caller's commit lock (the engine
	// serializes staging under it); only SyncTo runs concurrently.
	var commitMu sync.Mutex
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txid := uint64(w*each + i + 1)
				commitMu.Lock()
				target, err := l.StageRaw(EncodeBatch(txid, []Op{put(txid, "x")}))
				commitMu.Unlock()
				if err == nil {
					err = l.SyncTo(target)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("committer failed: %v", err)
	}

	if size := l.met.GroupCommitSize.Load(); size != workers*each {
		t.Fatalf("group_commit_size=%d, want %d", size, workers*each)
	}
	if gc := l.met.GroupCommits.Load(); gc == 0 || gc > workers*each {
		t.Fatalf("group_commits=%d, want 1..%d", gc, workers*each)
	}
	if lsn := l.LSN(); lsn != workers*each {
		t.Fatalf("LSN=%d, want %d", lsn, workers*each)
	}

	// Everything acked must be on disk.
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.ReplayBatches(func(lsn uint64, b *Batch) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*each {
		t.Fatalf("replayed %d batches, want %d", n, workers*each)
	}
}
