package client_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// gadgetSchema builds the test schema; the client must register the
// identical class list the server did (docs/SERVER.md).
func gadgetSchema() (*ode.Schema, *ode.Class) {
	s := ode.NewSchema()
	c := ode.NewClass("gadget").
		Field("name", ode.TString).
		Field("qty", ode.TInt).
		Register(s)
	return s, c
}

// startServer serves a fresh database on loopback and returns a
// connected client.
func startServer(t *testing.T) (*client.Client, *ode.Class) {
	t.Helper()
	schema, gadget := gadgetSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "c.odb"), schema, &ode.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(gadget); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})

	cs, cc := gadgetSchema()
	_ = cc
	c, err := client.Dial(addr.String(), cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cc
}

func gadget(c *ode.Class, name string, qty int64) *ode.Object {
	o := ode.NewObject(c)
	o.MustSet("name", ode.Str(name))
	o.MustSet("qty", ode.Int(qty))
	return o
}

func TestClientEndToEnd(t *testing.T) {
	c, cls := startServer(t)
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	var oid ode.OID
	err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		if oid, err = tx.PNew(cls, gadget(cls, "widget", 3)); err != nil {
			return err
		}
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(5))
		return tx.Update(oid, o)
	})
	if err != nil {
		t.Fatalf("RunTx: %v", err)
	}

	// Pipelined writes, then a streamed scan over everything.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := tx.Pipeline()
	var futs []*client.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, p.PNew(cls, gadget(cls, "bulk", int64(i))))
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, f := range futs {
		if _, err := f.OID(); err != nil {
			t.Fatalf("pipelined pnew: %v", err)
		}
	}
	n, err := tx.Count(&client.Scan{Class: cls})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n != 11 {
		t.Fatalf("count = %d, want 11", n)
	}
	got := 0
	_, err = tx.Forall(&client.Scan{
		Class: cls, Field: "qty", Op: client.CmpGe, Value: ode.Int(5),
	}, func(id ode.OID, o *ode.Object) (bool, error) {
		got++
		if q := o.MustGet("qty").Int(); q < 5 {
			t.Errorf("scan yielded qty %d", q)
		}
		return true, nil
	})
	if err != nil {
		t.Fatalf("forall: %v", err)
	}
	if got != 6 { // qty 5 plus bulk 5..9
		t.Fatalf("scan matched %d, want 6", got)
	}
	plan, err := tx.Explain(&client.Scan{Class: cls})
	if err != nil || !strings.Contains(plan, "gadget") {
		t.Fatalf("explain = %q, %v", plan, err)
	}
	ref, err := tx.NewVersion(oid)
	if err != nil || ref.OID != oid {
		t.Fatalf("newversion = %+v, %v", ref, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// Typed errors survive the wire.
	err = c.RunTx(ctx, func(tx *client.Tx) error {
		_, err := tx.Deref(ode.OID(1 << 40))
		return err
	})
	if !errors.Is(err, ode.ErrNoObject) {
		t.Fatalf("bogus deref: %v, want ErrNoObject", err)
	}

	snap, err := c.MetricsJSON(ctx)
	if err != nil || !strings.Contains(string(snap), "server.requests") {
		t.Fatalf("metrics: %v (%d bytes)", err, len(snap))
	}
}

func TestClientSessionOQL(t *testing.T) {
	c, _ := startServer(t)
	ctx := context.Background()
	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := sess.Exec(ctx, "x := 6 * 7; print(x);")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("output = %q, want 42", out)
	}
}

func TestClientDialFailure(t *testing.T) {
	s, _ := gadgetSchema()
	if _, err := client.Dial("127.0.0.1:1", s, &client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestPipelineMixedOps queues an update, reads and a delete in one
// batch: each future resolves on its own, and a deref of the object
// deleted earlier in the same batch fails alone.
func TestPipelineMixedOps(t *testing.T) {
	c, cls := startServer(t)
	schema, _ := gadgetSchema()
	err := c.RunTx(context.Background(), func(tx *client.Tx) error {
		p := tx.Pipeline()
		fa, fb := p.PNew(cls, gadget(cls, "a", 1)), p.PNew(cls, gadget(cls, "b", 2))
		if err := p.Flush(); err != nil {
			return err
		}
		a, err := fa.OID()
		if err != nil {
			return err
		}
		b, err := fb.OID()
		if err != nil {
			return err
		}
		up, readA, del, readB := p.Update(a, gadget(cls, "a", 10)), p.Deref(a), p.PDelete(b), p.Deref(b)
		if p.Len() != 4 {
			t.Errorf("Len = %d queued, want 4", p.Len())
		}
		if err := p.Flush(); err != nil {
			return err
		}
		if up.Err() != nil || del.Err() != nil {
			t.Errorf("update err %v, delete err %v", up.Err(), del.Err())
		}
		o, err := readA.Object(schema)
		if err != nil || o.MustGet("qty").Int() != 10 {
			t.Errorf("deref after pipelined update: %v, %v", o, err)
		}
		if _, err := readB.Object(schema); err == nil {
			t.Error("deref of an object deleted earlier in the batch succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunTxPanicReleasesTx: a RunTx body that panics after an update
// has the server's transaction aborted and its connection handed back
// before the panic reaches the caller, so the next writer of the object
// gets its lock at once and the update is gone; through a Client and
// through a Replicated router alike.
func TestRunTxPanicReleasesTx(t *testing.T) {
	c, cls := startServer(t)
	ctx := context.Background()
	var oid ode.OID
	err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(cls, gadget(cls, "widget", 3))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	setQty := func(qty int64) func(tx *client.Tx) error {
		return func(tx *client.Tx) error { return tx.Update(oid, gadget(cls, "widget", qty)) }
	}

	for i, runTx := range []func(context.Context, func(*client.Tx) error) error{
		c.RunTx, client.NewReplicated(c).RunTx,
	} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("router %d: recovered %v, want the body's panic", i, r)
				}
			}()
			_ = runTx(ctx, func(tx *client.Tx) error {
				if err := setQty(1)(tx); err != nil {
					return err
				}
				panic("boom")
			})
		}()
		short, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		defer cancel()
		want := int64(10 + i)
		if err := runTx(short, setQty(want)); err != nil {
			t.Fatalf("router %d: update after a panicked update of the same object: %v", i, err)
		}
		err = c.View(short, func(tx *client.Tx) error {
			o, err := tx.Deref(oid)
			if err == nil && o.MustGet("qty").Int() != want {
				t.Errorf("router %d: qty = %d, want %d", i, o.MustGet("qty").Int(), want)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
