package ode

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// inventorySchema builds the paper's stockitem class (section 2) with
// the reorder trigger and a non-negativity constraint.
func inventorySchema() (*Schema, *Class) {
	schema := NewSchema()
	stock := NewClass("stockitem").
		Field("name", TString).
		Field("price", TFloat).
		Field("qty", TInt).
		Field("reorders", TInt).
		Constraint("nonneg-qty", "qty >= 0", func(_ Store, o *Object) (bool, error) {
			return o.MustGet("qty").Int() >= 0, nil
		}).
		Trigger(&TriggerDef{
			Name:   "reorder",
			Params: []Param{{Name: "threshold", Type: TInt}, {Name: "lot", Type: TInt}},
			Src:    "qty < threshold ==> order(lot)",
			Cond: func(_ Store, self *Object, args []Value) (bool, error) {
				return self.MustGet("qty").Int() < args[0].Int(), nil
			},
			Action: func(st Store, self *Object, oid OID, args []Value) error {
				self.MustSet("qty", Int(self.MustGet("qty").Int()+args[1].Int()))
				self.MustSet("reorders", Int(self.MustGet("reorders").Int()+1))
				return st.Update(oid, self)
			},
		}).
		Register(schema)
	return schema, stock
}

func openTestDB(t testing.TB, opts *Options) (*DB, *Class) {
	t.Helper()
	schema, stock := inventorySchema()
	db, err := Open(filepath.Join(t.TempDir(), "inv.odb"), schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	return db, stock
}

func addItem(t testing.TB, db *DB, stock *Class, name string, qty int64, price float64) OID {
	t.Helper()
	var oid OID
	err := db.RunTx(func(tx *Tx) error {
		o := NewObject(stock)
		o.MustSet("name", Str(name))
		o.MustSet("qty", Int(qty))
		o.MustSet("price", Float(price))
		var err error
		oid, err = tx.PNew(stock, o)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestOpenCreateReopen(t *testing.T) {
	schema, stock := inventorySchema()
	path := filepath.Join(t.TempDir(), "db.odb")
	db, err := Open(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	oid := addItem(t, db, stock, "dram", 7500, 0.05)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is a no-op.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	schema2, stock2 := inventorySchema()
	db2, err := Open(path, schema2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	err = db2.View(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if o.MustGet("name").Str() != "dram" || o.MustGet("qty").Int() != 7500 {
			t.Error("state lost across reopen")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !db2.HasCluster(stock2) {
		t.Error("cluster lost")
	}
}

// TestRemoveFiles wipes a store that was written, closed and left with
// crash temporaries beside it: no file of it may remain, and a reopen
// starts from an empty store.
func TestRemoveFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	if err := RemoveFiles(path); err != nil {
		t.Fatalf("RemoveFiles on a missing store = %v, want nil", err)
	}
	schema, stock := inventorySchema()
	db, err := Open(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	addItem(t, db, stock, "dram", 7500, 0.05)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Temporaries a crash mid-truncate or mid-rebuild leaves behind.
	for _, tmp := range []string{path + ".wal.tmp", path + ".rebuild"} {
		if err := os.WriteFile(tmp, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveFiles(path); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 0 {
		t.Fatalf("files left after RemoveFiles: %v", left)
	}
	schema2, stock2 := inventorySchema()
	db2, err := Open(path, schema2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.HasCluster(stock2) {
		t.Fatal("reopened store still has the removed store's cluster")
	}
}

func TestOpenWrongSchema(t *testing.T) {
	schema, stock := inventorySchema()
	path := filepath.Join(t.TempDir(), "db.odb")
	db, err := Open(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateCluster(stock)
	db.Close()

	bad := NewSchema()
	NewClass("stockitem").Field("name", TInt).Register(bad)
	if _, err := Open(path, bad, nil); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("Open with mismatched schema = %v", err)
	}
}

func TestRunTxCommitAndRollback(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "x", 10, 1)
	wantErr := errors.New("boom")
	err := db.RunTx(func(tx *Tx) error {
		o, _ := tx.Deref(oid)
		o.MustSet("qty", Int(0))
		tx.Update(oid, o)
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	db.View(func(tx *Tx) error {
		o, _ := tx.Deref(oid)
		if o.MustGet("qty").Int() != 10 {
			t.Error("rolled-back write visible")
		}
		return nil
	})
}

func TestConstraintEnforcedThroughFacade(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "x", 10, 1)
	err := db.RunTx(func(tx *Tx) error {
		o, _ := tx.Deref(oid)
		o.MustSet("qty", Int(-5))
		return tx.Update(oid, o)
	})
	if !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("err = %v", err)
	}
}

func TestForallThroughFacade(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 20; i++ {
		addItem(t, db, stock, fmt.Sprintf("item%02d", i), int64(i*10), float64(i))
	}
	err := db.View(func(tx *Tx) error {
		n, err := Forall(tx, stock).SuchThat(Field("qty").Ge(Int(100))).Count()
		if err != nil {
			return err
		}
		if n != 10 {
			t.Errorf("matched %d, want 10", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexDDLThroughFacade(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 10; i++ {
		addItem(t, db, stock, fmt.Sprintf("i%d", i), int64(i), 1)
	}
	if err := db.CreateIndex(stock, "qty"); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		q := Forall(tx, stock).SuchThat(Field("qty").Eq(Int(5)))
		n, err := q.Count()
		if err != nil || n != 1 {
			t.Errorf("indexed eq: n=%d err=%v", n, err)
		}
		return nil
	})
	if err := db.DropIndex(stock, "qty"); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsThroughFacade(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "versioned", 1, 1)
	var ref VRef
	db.RunTx(func(tx *Tx) error {
		var err error
		ref, err = tx.NewVersion(oid)
		if err != nil {
			return err
		}
		o, _ := tx.Deref(oid)
		o.MustSet("qty", Int(2))
		return tx.Update(oid, o)
	})
	db.View(func(tx *Tx) error {
		old, err := tx.DerefVersion(ref)
		if err != nil {
			return err
		}
		if old.MustGet("qty").Int() != 1 {
			t.Error("old version wrong")
		}
		cur, _ := tx.Deref(oid)
		if cur.MustGet("qty").Int() != 2 {
			t.Error("current wrong")
		}
		return nil
	})
}

func TestStatsAndCheckpoint(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 50; i++ {
		addItem(t, db, stock, fmt.Sprintf("s%d", i), 1, 1)
	}
	st := db.Stats()
	if st.WALBytes == 0 {
		t.Error("WAL should have content before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.WALBytes != 0 {
		t.Error("WAL not truncated by checkpoint")
	}
	if st.Pages < 2 {
		t.Errorf("Pages = %d", st.Pages)
	}
}

func TestVersionBranchingThroughFacade(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "chip", 100, 1)

	var base VRef
	err := db.RunTx(func(tx *Tx) error {
		var err error
		base, err = db.Versions().Checkpoint(tx, oid)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mainline work.
	db.RunTx(func(tx *Tx) error {
		o, _ := tx.Deref(oid)
		o.MustSet("qty", Int(200))
		return tx.Update(oid, o)
	})
	// Branch from the base version.
	var mainHead VRef
	err = db.RunTx(func(tx *Tx) error {
		var err error
		mainHead, err = db.Versions().Derive(tx, base)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		cur, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if cur.MustGet("qty").Int() != 100 {
			t.Errorf("branch live state qty = %d, want 100 (base)", cur.MustGet("qty").Int())
		}
		frozen, err := tx.DerefVersion(mainHead)
		if err != nil {
			return err
		}
		if frozen.MustGet("qty").Int() != 200 {
			t.Errorf("mainline head qty = %d, want 200", frozen.MustGet("qty").Int())
		}
		kids, err := db.Versions().Children(tx, base)
		if err != nil {
			return err
		}
		if len(kids) != 2 {
			t.Errorf("children(base) = %v, want 2 (mainline head + live branch)", kids)
		}
		return nil
	})
}

// TestTriggerActionsRunInline: a fired action commits before the
// triggering RunTx returns, so the next read sees it with nothing to
// drain; an expired timed activation is retired the same way.
func TestTriggerActionsRunInline(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "bolt", 10, 1)
	err := db.RunTx(func(tx *Tx) error {
		_, err := db.Triggers().Activate(tx, oid, "reorder", Int(5), Int(10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	setQty := func(q int64) {
		t.Helper()
		err := db.RunTx(func(tx *Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", Int(q))
			return tx.Update(oid, o)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	setQty(3)
	err = db.View(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err == nil && (o.MustGet("qty").Int() != 13 || o.MustGet("reorders").Int() != 1) {
			t.Errorf("after the firing commit: qty %d reorders %d, want 13 and 1",
				o.MustGet("qty").Int(), o.MustGet("reorders").Int())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	timed := addItem(t, db, stock, "nut", 10, 1)
	err = db.RunTx(func(tx *Tx) error {
		_, err := db.Triggers().ActivateWithin(tx, timed, "reorder", timeNow().Add(-time.Second), Int(5), Int(10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.ExpireTimedTriggers(); err != nil || n != 1 {
		t.Fatalf("ExpireTimedTriggers = %d, %v; want 1 expired", n, err)
	}
	if errs := db.Triggers().Errors(); len(errs) != 0 {
		t.Fatalf("action errors: %v", errs)
	}
}
