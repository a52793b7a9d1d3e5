package server_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/object"
)

// gadgetSchema is invSchema plus a subclass of stockitem with a string,
// a set and a reference field, for scans over a class hierarchy.
func gadgetSchema() (*ode.Schema, *ode.Class, *ode.Class) {
	schema, stock := invSchema()
	gadget := ode.NewClass("gadget", stock).
		Field("color", ode.TString).
		Field("parts", ode.SetOfType(ode.TInt)).
		Field("peer", ode.TAnyRef).
		Register(schema)
	return schema, stock, gadget
}

// scanRow is one row of a scan: its OID and its object's encoding.
type scanRow struct {
	oid ode.OID
	img []byte
}

// rowCollector returns a forall body appending to *rows.
func rowCollector(rows *[]scanRow) func(ode.OID, *ode.Object) (bool, error) {
	return func(oid ode.OID, obj *ode.Object) (bool, error) {
		*rows = append(*rows, scanRow{oid, object.Encode(obj)})
		return true, nil
	}
}

// sameRows fails the test unless got and want agree row for row.
func sameRows(t *testing.T, what string, got, want []scanRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].oid != want[i].oid || !bytes.Equal(got[i].img, want[i].img) {
			t.Fatalf("%s: row %d is oid %d (%x), want oid %d (%x)", what, i, got[i].oid, got[i].img, want[i].oid, want[i].img)
		}
	}
}

// TestRemoteForallMatchesEmbedded is the differential check of the
// remote scan path: two stores built by the same operations, one served
// and one embedded, must return the same OIDs and equal objects, row
// for row. The remote rows are stored images shipped undecoded; rows
// the transaction wrote (updated, pnew'd) are encoded from its private
// state, and index-range rows from a point lookup.
func TestRemoteForallMatchesEmbedded(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	eschema, estock, egadget := gadgetSchema()
	edb, err := ode.Open(filepath.Join(dir, "embedded.odb"), eschema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer edb.Close()
	for _, c := range []*ode.Class{estock, egadget} {
		if err := edb.CreateCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	rschema, rstock, rgadget := gadgetSchema()
	rdb, _, addr := openServed(t, filepath.Join(dir, "remote.odb"), rschema, nil, nil, rstock, rgadget)
	schema, stock, gadget := gadgetSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The same committed load into both stores: the OIDs come out the
	// same. Names vary in length; every third object is a gadget.
	for _, st := range []struct {
		db            *ode.DB
		stock, gadget *ode.Class
	}{{edb, estock, egadget}, {rdb, rstock, rgadget}} {
		err := st.db.RunTx(func(tx *ode.Tx) error {
			prev := ode.NilOID
			for i := 0; i < n; i++ {
				o := ode.NewObject(st.stock)
				if i%3 == 2 {
					o = ode.NewObject(st.gadget)
					o.MustSet("color", ode.Str([]string{"red", "blue"}[i%2]))
					o.MustSet("parts", ode.SetOf(ode.NewSet(ode.Int(int64(i)), ode.Int(int64(i+1)))))
					o.MustSet("peer", ode.Ref(prev))
				}
				o.MustSet("name", ode.Str(strings.Repeat("n", i%17)+fmt.Sprint(i)))
				o.MustSet("qty", ode.Int(int64(i)))
				o.MustSet("price", ode.Float(float64(i)/4))
				oid, err := tx.PNew(o.Class(), o)
				if err != nil {
					return err
				}
				prev = oid
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.db.CreateIndex(st.stock, "price"); err != nil {
			t.Fatal(err)
		}
	}

	// The scans, each as a remote Scan and as the embedded loop the
	// server plans for it.
	type scan struct {
		name   string
		remote client.Scan
		local  func(tx *ode.Tx) *ode.Query
	}
	scans := []scan{
		{"extent", client.Scan{Class: stock},
			func(tx *ode.Tx) *ode.Query { return ode.Forall(tx, estock) }},
		{"subtypes", client.Scan{Class: stock, Subtypes: true},
			func(tx *ode.Tx) *ode.Query { return ode.Forall(tx, estock).Subtypes() }},
		{"predicate", client.Scan{Class: stock, Subtypes: true, Field: "qty", Op: client.CmpGe, Value: ode.Int(n / 2)},
			func(tx *ode.Tx) *ode.Query {
				return ode.Forall(tx, estock).Subtypes().SuchThat(ode.Field("qty").Ge(ode.Int(n / 2)))
			}},
		{"subclass predicate", client.Scan{Class: gadget, Field: "color", Op: client.CmpEq, Value: ode.Str("red")},
			func(tx *ode.Tx) *ode.Query {
				return ode.Forall(tx, egadget).SuchThat(ode.Field("color").Eq(ode.Str("red")))
			}},
		{"index range", client.Scan{Class: stock, Subtypes: true, Field: "price", Op: client.CmpLt, Value: ode.Float(20)},
			func(tx *ode.Tx) *ode.Query {
				return ode.Forall(tx, estock).Subtypes().SuchThat(ode.Field("price").Lt(ode.Float(20)))
			}},
	}
	compare := func(phase string, rtx *client.Tx, etx *ode.Tx) {
		t.Helper()
		for _, sc := range scans {
			var got, want []scanRow
			sc.remote.Batch = 7 // many frames per scan
			if _, err := rtx.Forall(&sc.remote, rowCollector(&got)); err != nil {
				t.Fatalf("%s %s: remote: %v", phase, sc.name, err)
			}
			collect := rowCollector(&want)
			if err := sc.local(etx).Do(func(it ode.Item) (bool, error) { return collect(it.OID, it.Obj) }); err != nil {
				t.Fatalf("%s %s: embedded: %v", phase, sc.name, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s %s: the scan returns no rows", phase, sc.name)
			}
			sameRows(t, phase+" "+sc.name, got, want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rtx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rtx.Abort()
	etx := edb.Begin()
	defer etx.Abort()
	compare("committed", rtx, etx)

	// The same writes in both transactions: updates (one moves a row
	// across the qty predicate), pnews of both classes, and deletes.
	type writer interface {
		Deref(ode.OID) (*ode.Object, error)
		Update(ode.OID, *ode.Object) error
		PNew(*ode.Class, *ode.Object) (ode.OID, error)
		PDelete(ode.OID) error
	}
	write := func(tx writer, stock, gadget *ode.Class) {
		t.Helper()
		for oid := ode.OID(1); oid <= n; oid += 7 {
			o, err := tx.Deref(oid)
			if err != nil {
				t.Fatal(err)
			}
			o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+n))
			o.MustSet("name", ode.Str(fmt.Sprint("updated-", oid)))
			if err := tx.Update(oid, o); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			cls := stock
			if i%2 == 1 {
				cls = gadget
			}
			o := ode.NewObject(cls)
			o.MustSet("name", ode.Str(fmt.Sprint("new-", i)))
			o.MustSet("qty", ode.Int(int64(n+i)))
			o.MustSet("price", ode.Float(float64(i)))
			if cls == gadget {
				o.MustSet("color", ode.Str("red"))
			}
			if _, err := tx.PNew(cls, o); err != nil {
				t.Fatal(err)
			}
		}
		for oid := ode.OID(5); oid <= n; oid += 50 {
			if err := tx.PDelete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(rtx, stock, gadget)
	write(etx, estock, egadget)
	compare("written", rtx, etx)
}

// loadItems commits n stockitems: item i is named name(i), with qty i
// and price i/100.
func loadItems(t testing.TB, db *ode.DB, stock *ode.Class, n int, name func(int) string) {
	t.Helper()
	err := db.RunTx(func(tx *ode.Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.PNew(stock, item(stock, name(i), int64(i), float64(i)/100)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForallBatchBoundedByBytes is the oversized-batch regression: the
// row clamp alone let a batch of 8 192 wide rows exceed the wire's frame
// limit, which the client rejects by dropping the connection. A batch
// is now also flushed once its body passes a byte bound.
func TestForallBatchBoundedByBytes(t *testing.T) {
	const n, width = 3000, 3500
	db, _, c, stock := startEnv(t, nil)
	name := strings.Repeat("x", width)
	loadItems(t, db, stock, n, func(int) string { return name })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ { // the connection survives the scan
		err := c.View(ctx, func(tx *client.Tx) error {
			got, err := tx.Forall(&client.Scan{Class: stock, Batch: 8192}, func(_ ode.OID, o *ode.Object) (bool, error) {
				if len(o.MustGet("name").Str()) != width {
					return false, fmt.Errorf("name of %d bytes", len(o.MustGet("name").Str()))
				}
				return true, nil
			})
			if err == nil && got != n {
				err = fmt.Errorf("scan returned %d rows, want %d", got, n)
			}
			return err
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestRemoteScanWorkCounts gates the work of the remote scan path by
// counting it (on any CPU count): a read-only predicated Count and
// Forall decode no row on the server, since stored images are tested
// there and shipped as stored, and a remote Forall allocates a bounded
// number of times per row.
func TestRemoteScanWorkCounts(t *testing.T) {
	const n = 2000
	db, _, c, stock := startEnv(t, nil)
	loadItems(t, db, stock, n, func(i int) string { return fmt.Sprintf("item-%05d", i) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// price = i/100 >= 0 holds for every item.
	pred := client.Scan{Class: stock, Field: "price", Op: client.CmpGe, Value: ode.Int(0)}
	var sum int64
	scans := map[string]func(tx *client.Tx) (int, error){
		"count": func(tx *client.Tx) (int, error) { return tx.Count(&pred) },
		"forall": func(tx *client.Tx) (int, error) {
			return tx.Forall(&pred, func(_ ode.OID, o *ode.Object) (bool, error) {
				sum += o.MustGet("qty").Int()
				return true, nil
			})
		},
	}
	run := func(name string) {
		err := c.View(ctx, func(tx *client.Tx) error {
			got, err := scans[name](tx)
			if err == nil && got != n {
				err = fmt.Errorf("%d rows, want %d", got, n)
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"count", "forall"} {
		before := db.Stats().Query.RowsDecoded
		run(name)
		if d := db.Stats().Query.RowsDecoded - before; d != 0 {
			t.Errorf("remote predicated %s decoded %d rows on the server", name, d)
		}
	}
	// Client and server run in this process, so this counts both ends.
	perRow := testing.AllocsPerRun(3, func() { run("forall") }) / n
	t.Logf("remote forall: %.2f allocations per row", perRow)
	if perRow > allocsPerRemoteRow {
		t.Errorf("remote forall: %.2f allocations per row, limit %.2f", perRow, allocsPerRemoteRow)
	}
}

// allocsPerRemoteRow bounds the allocations of a remote Forall per row,
// client and server together.
const allocsPerRemoteRow = 1.25
