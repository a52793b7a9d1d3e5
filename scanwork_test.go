package ode

import (
	"fmt"
	"testing"
)

// scanFixture loads n stockitems into a database whose buffer pool
// holds a fraction of them, checkpoints, and then dirties a few pages
// with updates that stay in the pool.
func scanFixture(t *testing.T, n int) (*DB, *Class) {
	t.Helper()
	db, stock := openTestDB(t, &Options{NoSync: true, PoolPages: 128})
	var oids []OID
	for start := 0; start < n; start += 1000 {
		err := db.RunTx(func(tx *Tx) error {
			for i := start; i < start+1000; i++ {
				o := NewObject(stock)
				o.MustSet("name", Str(fmt.Sprintf("item-%07d", i)))
				o.MustSet("qty", Int(int64(i)))
				o.MustSet("price", Float(float64(i)/100))
				oid, err := tx.PNew(stock, o)
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	err := db.RunTx(func(tx *Tx) error {
		for i := 0; i < len(oids); i += len(oids) / 8 {
			o, err := tx.Deref(oids[i])
			if err != nil {
				return err
			}
			o.MustSet("qty", Int(0))
			if err := tx.Update(oids[i], o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, stock
}

// countAll runs one read-only full-extent count.
func countAll(t *testing.T, db *DB, stock *Class, want int) {
	t.Helper()
	var got int
	err := db.View(func(tx *Tx) error {
		var err error
		got, err = Forall(tx, stock).Count()
		return err
	})
	if err != nil || got != want {
		t.Fatalf("count = %d, %v; want %d", got, err, want)
	}
}

// A read-only scan larger than the buffer pool evicts clean frames
// only: the dirty pages another transaction left behind are not
// written, so the scan pays no page write and no double-write fsync.
func TestReadOnlyScanDoesNotFlush(t *testing.T) {
	const n = 20_000
	db, stock := scanFixture(t, n)
	before := db.Stats()
	countAll(t, db, stock, n)
	after := db.Stats()
	if after.Pool.Evictions == before.Pool.Evictions {
		t.Fatal("the scan evicted nothing: the data set fits the pool")
	}
	if d := after.Storage.DWFlushes - before.Storage.DWFlushes; d != 0 {
		t.Errorf("storage.dw_flushes rose by %d during a read-only scan", d)
	}
	if d := after.Storage.PageWrites - before.Storage.PageWrites; d != 0 {
		t.Errorf("storage.page_writes rose by %d during a read-only scan", d)
	}
}

// TestExtentScanWorkCounts gates the work of one read-only full-extent
// count over a fixed data set by counting it, not timing it: the data
// set's layout is deterministic, so the counts repeat exactly on any
// host and CPU count.
//
// Pins: every heap page and every cluster and directory leaf is pinned
// once, plus at most one re-pin of a directory leaf and of a heap page
// per batch of scanBatch (64) objects, since a batch boundary can fall
// inside either; a batch never spans two cluster leaves.
func TestExtentScanWorkCounts(t *testing.T) {
	const n = 20_000
	db, stock := scanFixture(t, n)
	fp, err := db.Manager().Footprint()
	if err != nil {
		t.Fatal(err)
	}
	cached := db.Manager().ObjectCacheLen()
	before := db.Stats()
	countAll(t, db, stock, n)
	after := db.Stats()

	batches := (n+63)/64 + fp.ClusterLeaves
	limit := uint64(fp.HeapPages + fp.ClusterLeaves + fp.DirLeaves + 2*batches)
	if pins := after.Pool.Pins - before.Pool.Pins; pins > limit {
		t.Errorf("scan took %d pins, limit %d (%+v)", pins, limit, fp)
	}
	if d := (after.Object.CacheHits + after.Object.CacheMisses) - (before.Object.CacheHits + before.Object.CacheMisses); d != 0 {
		t.Errorf("scan touched the object cache %d times", d)
	}
	if got := db.Manager().ObjectCacheLen(); got != cached {
		t.Errorf("object cache holds %d entries after the scan, %d before", got, cached)
	}
	if d := after.Storage.DWFlushes - before.Storage.DWFlushes; d != 0 {
		t.Errorf("scan caused %d double-write flushes", d)
	}
	if allocs := testing.AllocsPerRun(2, func() { countAll(t, db, stock, n) }) / n; allocs > 5 {
		t.Errorf("%.2f allocations per row, limit 5", allocs)
	}
}
