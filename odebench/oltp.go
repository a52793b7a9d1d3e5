package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"ode"
	"ode/client"
	"ode/internal/bench"
	"ode/internal/server"
	"ode/internal/workload"
)

// oltp: one loopback ode server and two clients, one caller each. The
// 20 000 stockitems and the 8 000-cell chain fit the 1 024-page pool;
// the 2 000-item hot set fits the 4 096-object cache.
const (
	oltpItems = 20_000
	oltpCells = 8_000
	oltpHops  = 20
	oltpReads = 8 // derefs per read View
)

var oltpSpec = &spec{
	name:     "oltp",
	readKind: "read",
	setup:    func(seed int64) (env, error) { return newOLTP(seed, oltpItems, oltpCells) },
	figures: []figure{
		{name: "read_p50_us", kind: "read", unit: "us", q: 0.5, scale: 1},
		{name: "read_p99_us", kind: "read", unit: "us", q: 0.99, scale: 1},
		{name: "write_p50_us", kind: "write", unit: "us", q: 0.5, scale: 1},
		{name: "write_p99_us", kind: "write", unit: "us", q: 0.99, scale: 1},
	},
}

// version is an acknowledged newversion and the qty it froze.
type version struct {
	ref ode.VRef
	qty int64
}

// oltpPart is one caller's client and the model of its partition.
type oltpPart struct {
	cl    *client.Client
	store workload.Store
	mine  []ode.OID
	qty   map[ode.OID]int64 // acknowledged qty of every item this caller wrote
	vers  []version
	seq   int64
}

type oltpEnv struct {
	ctx   context.Context
	w     *bench.World
	srv   *server.Server
	done  chan struct{} // closed when the server's Serve returns
	parts []*oltpPart
	oids  []ode.OID
	index map[ode.OID]int // position in oids: item i is named item-%07d
	hot   []ode.OID
	cells []ode.OID // cells[j] holds value j
}

func newOLTP(seed int64, items, cells int) (*oltpEnv, error) {
	w, err := bench.NewWorld(&ode.Options{})
	if err != nil {
		return nil, err
	}
	e := &oltpEnv{ctx: context.Background(), w: w, index: map[ode.OID]int{}}
	if err := e.load(seed, items, cells); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *oltpEnv) load(seed int64, items, cells int) error {
	var err error
	if e.oids, err = e.w.LoadStock(items); err != nil {
		return err
	}
	head, err := e.w.LoadChain(cells)
	if err != nil {
		return err
	}
	if err := e.w.DB.View(func(tx *ode.Tx) error {
		for oid := head; oid != ode.NilOID; {
			e.cells = append(e.cells, oid)
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			oid, _ = o.MustGet("next").AnyOID()
		}
		return nil
	}); err != nil {
		return err
	}
	for i, oid := range e.oids {
		e.index[oid] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(items)[:items/10] {
		e.hot = append(e.hot, e.oids[i])
	}

	srv := server.New(e.w.DB, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv, e.done = srv, make(chan struct{})
	go func() {
		defer close(e.done)
		srv.Serve(nil)
	}()
	for k := 0; k < 2; k++ {
		schema, cw := bench.Schema()
		cl, err := client.Dial(addr.String(), schema, nil)
		if err != nil {
			return err
		}
		p := &oltpPart{cl: cl, store: workload.NewRemoteStore(cl, cw), qty: map[ode.OID]int64{}}
		for i := k; i < items; i += 2 {
			p.mine = append(p.mine, e.oids[i])
		}
		e.parts = append(e.parts, p)
	}
	return nil
}

// qtyOf is the model's qty of one of p's items.
func (e *oltpEnv) qtyOf(p *oltpPart, oid ode.OID) int64 {
	if q, ok := p.qty[oid]; ok {
		return q
	}
	return int64(e.index[oid]) // LoadStock's qty
}

func (e *oltpEnv) steps() []func(*caller) {
	out := make([]func(*caller), len(e.parts))
	for k, p := range e.parts {
		p := p
		open := func() (objTx, func() error, func(), error) {
			tx, err := p.cl.Begin(e.ctx)
			if err != nil {
				return nil, nil, nil, err
			}
			return tx, tx.Commit, tx.Abort, nil
		}
		out[k] = func(c *caller) {
			switch roll := c.rng.Intn(100); {
			case roll < 55:
				e.read(c, p)
			case roll < 75:
				e.walk(c, p)
			case roll < 95:
				e.update(c, p, open)
			default:
				e.newVersion(c, p, open)
			}
		}
	}
	return out
}

// read derefs oltpReads items, 80% of them from the hot set, and checks
// each one's name.
func (e *oltpEnv) read(c *caller, p *oltpPart) {
	targets := make([]ode.OID, oltpReads)
	for i := range targets {
		if c.rng.Intn(100) < 80 {
			targets[i] = e.hot[c.rng.Intn(len(e.hot))]
		} else {
			targets[i] = e.oids[c.rng.Intn(len(e.oids))]
		}
	}
	c.tx("read", func() error {
		return c.view(p.store, func(t workload.Tx) error {
			for _, oid := range targets {
				o, err := ops{t, c}.Deref(oid)
				if err != nil {
					return err
				}
				if name, want := o.MustGet("name").Str(), fmt.Sprintf("item-%07d", e.index[oid]); name != want {
					c.mismatch("oltp: item %d is named %q, model %q", oid, name, want)
				}
			}
			c.rows += oltpReads
			return nil
		})
	})
}

// walk follows the cell chain for oltpHops hops and checks each value.
func (e *oltpEnv) walk(c *caller, p *oltpPart) {
	j := c.rng.Intn(len(e.cells) - oltpHops)
	c.tx("walk", func() error {
		return c.view(p.store, func(t workload.Tx) error {
			oid := e.cells[j]
			for h := 0; h < oltpHops; h++ {
				o, err := ops{t, c}.Deref(oid)
				if err != nil {
					return err
				}
				if v := o.MustGet("value").Int(); v != int64(j+h) {
					c.mismatch("oltp: cell %d holds %d, model %d", oid, v, j+h)
				}
				oid, _ = o.MustGet("next").AnyOID()
			}
			c.rows += oltpHops
			return nil
		})
	})
}

// update durably sets the qty of two of the caller's own items.
func (e *oltpEnv) update(c *caller, p *oltpPart, open opener) {
	a := p.mine[c.rng.Intn(len(p.mine))]
	b := p.mine[c.rng.Intn(len(p.mine))]
	for b == a {
		b = p.mine[c.rng.Intn(len(p.mine))]
	}
	p.seq++
	va, vb := 1_000_000*p.seq+1, 1_000_000*p.seq+2
	c.tx("write", func() error {
		err := c.write(open, func(t ops) error {
			for _, w := range [2]struct {
				oid ode.OID
				v   int64
			}{{a, va}, {b, vb}} {
				o, err := t.Deref(w.oid)
				if err != nil {
					return err
				}
				if q := o.MustGet("qty").Int(); q != e.qtyOf(p, w.oid) {
					c.mismatch("oltp: item %d has qty %d, model %d", w.oid, q, e.qtyOf(p, w.oid))
				}
				o.MustSet("qty", ode.Int(w.v))
				if err := t.Update(w.oid, o); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			p.qty[a], p.qty[b] = va, vb
			c.rows += 2
		}
		return err
	})
}

// newVersion freezes one of the caller's items as a version.
func (e *oltpEnv) newVersion(c *caller, p *oltpPart, open opener) {
	oid := p.mine[c.rng.Intn(len(p.mine))]
	c.tx("newversion", func() error {
		var ref ode.VRef
		err := c.write(open, func(t ops) (err error) {
			ref, err = t.NewVersion(oid)
			return err
		})
		if err == nil {
			p.vers = append(p.vers, version{ref, e.qtyOf(p, oid)})
		}
		return err
	})
}

func (e *oltpEnv) counters() (counters, error) {
	c := counters{}
	if err := c.addRemote(e.ctx, e.parts[0].cl); err != nil {
		return nil, err
	}
	c.addCache(e.parts[1].cl)
	return c, nil
}

func (e *oltpEnv) pages() uint32 { return e.w.DB.Stats().Pages }

// probe: oltp runs no scans.
func (e *oltpEnv) probe(*caller) (float64, float64, error) { return 0, 0, nil }

// verify closes the clients, the server and the database, reopens the
// database, and checks that every acknowledged update and version is
// there.
func (e *oltpEnv) verify() ([]string, error) {
	e.stopServing()
	if err := e.w.DB.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	e.w.DB = nil
	schema, _ := bench.Schema()
	db, err := ode.Open(filepath.Join(e.w.Dir, "bench.odb"), schema, &ode.Options{})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	e.w.DB = db
	c := newCaller(0, 0, 0, nil)
	err = db.View(func(tx *ode.Tx) error {
		for _, p := range e.parts {
			for oid, want := range p.qty {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				if q := o.MustGet("qty").Int(); q != want {
					c.mismatch("oltp: after reopen item %d has qty %d, acknowledged %d", oid, q, want)
				}
			}
			for _, v := range p.vers {
				o, err := tx.DerefVersion(v.ref)
				if err != nil {
					return fmt.Errorf("version %v: %w", v.ref, err)
				}
				if q := o.MustGet("qty").Int(); q != v.qty {
					c.mismatch("oltp: after reopen version %v has qty %d, acknowledged %d", v.ref, q, v.qty)
				}
			}
		}
		return nil
	})
	return c.bad, err
}

// stopServing closes the clients and the server and waits for Serve to
// return.
func (e *oltpEnv) stopServing() {
	for _, p := range e.parts {
		if p.cl != nil {
			p.cl.Close()
			p.cl = nil
		}
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.done
		e.srv = nil
	}
}

func (e *oltpEnv) close() {
	e.stopServing()
	e.w.Close()
}
