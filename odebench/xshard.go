package main

import (
	"context"
	"fmt"

	"ode"
	"ode/client"
	"ode/internal/bench"
	"ode/internal/server"
)

// xshard: two loopback shards and one client.Sharded router driven by
// one caller, so two connections. Accounts are stockitems and a
// balance is an item's qty; transfers conserve the total.
const (
	xshardPerShard  = 1_000
	xshardMaxAmount = 20
)

var xshardSpec = &spec{
	name:     "xshard",
	readKind: "audit",
	setup:    func(seed int64) (env, error) { return newXShard(xshardPerShard) },
	figures: []figure{
		{name: "xcommit_p50_us", kind: "xtransfer", unit: "us", q: 0.5, scale: 1},
		{name: "xcommit_p99_us", kind: "xtransfer", unit: "us", q: 0.99, scale: 1},
		{name: "write_p50_us", kind: "write", unit: "us", q: 0.5, scale: 1},
	},
}

type xshardEnv struct {
	ctx    context.Context
	worlds []*bench.World
	srvs   []*server.Server
	done   []chan struct{}
	r      *client.Sharded
	stock  *ode.Class  // the router schema's stockitem
	accts  [][]ode.OID // by shard
	bal    map[ode.OID]int64
	total  int64
}

// newXShard builds the two shards; the seed only drives the callers.
func newXShard(perShard int) (*xshardEnv, error) {
	e := &xshardEnv{ctx: context.Background(), bal: map[ode.OID]int64{}}
	if err := e.load(perShard); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *xshardEnv) load(perShard int) error {
	var addrs []string
	for slot := 0; slot < 2; slot++ {
		w, err := bench.NewWorld(&ode.Options{ShardCount: 2, ShardSlot: slot})
		if err != nil {
			return err
		}
		e.worlds = append(e.worlds, w)
		oids, err := w.LoadStock(perShard)
		if err != nil {
			return err
		}
		for i, oid := range oids {
			e.bal[oid] = int64(i) // LoadStock's qty
			e.total += int64(i)
		}
		e.accts = append(e.accts, oids)
		srv := server.New(w.DB, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(nil)
		}()
		e.srvs = append(e.srvs, srv)
		e.done = append(e.done, done)
		addrs = append(addrs, addr.String())
	}
	schema, cw := bench.Schema()
	r, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		return err
	}
	e.r, e.stock = r, cw.Stock
	return nil
}

func (e *xshardEnv) steps() []func(*caller) {
	open := func() (objTx, func() error, func(), error) {
		tx := e.r.Begin(e.ctx)
		return tx, tx.Commit, tx.Abort, nil
	}
	pick := func(c *caller, shard int) ode.OID {
		return e.accts[shard][c.rng.Intn(len(e.accts[shard]))]
	}
	step := func(c *caller) {
		switch roll := c.rng.Intn(100); {
		case roll < 70:
			from, to := pick(c, 0), pick(c, 1)
			if c.rng.Intn(2) == 1 {
				from, to = to, from
			}
			e.transfer(c, "xtransfer", open, from, to)
		case roll < 95:
			s := c.rng.Intn(2)
			from, to := pick(c, s), pick(c, s)
			for to == from {
				to = pick(c, s)
			}
			e.transfer(c, "write", open, from, to)
		default:
			c.tx("audit", func() error { return e.audit(c) })
		}
	}
	return []func(*caller){step}
}

// transfer moves a random amount between two accounts in one
// transaction: through 2PC when they live on different shards.
func (e *xshardEnv) transfer(c *caller, kind string, open opener, from, to ode.OID) {
	amt := int64(1 + c.rng.Intn(xshardMaxAmount))
	c.tx(kind, func() error {
		err := c.write(open, func(t ops) error {
			for _, m := range [2]struct {
				oid   ode.OID
				delta int64
			}{{from, -amt}, {to, amt}} {
				o, err := t.Deref(m.oid)
				if err != nil {
					return err
				}
				q := o.MustGet("qty").Int()
				if q != e.bal[m.oid] {
					c.mismatch("xshard: account %d holds %d, model %d", m.oid, q, e.bal[m.oid])
				}
				o.MustSet("qty", ode.Int(q+m.delta))
				if err := t.Update(m.oid, o); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			e.bal[from] -= amt
			e.bal[to] += amt
			c.rows += 2
		}
		return err
	})
}

// audit sums every balance with one scatter-gather forall; transfers
// conserve the total.
func (e *xshardEnv) audit(c *caller) error {
	return retry(func() error {
		return e.r.View(e.ctx, func(tx *client.STx) error {
			var sum int64
			var n int
			err := c.call("forall", func() (err error) {
				n, err = tx.Forall(&client.Scan{Class: e.stock}, func(_ ode.OID, o *ode.Object) (bool, error) {
					sum += o.MustGet("qty").Int()
					return true, nil
				})
				return err
			})
			if err != nil {
				return err
			}
			if n != len(e.bal) || sum != e.total {
				c.mismatch("xshard: audit saw %d accounts holding %d, model %d holding %d", n, sum, len(e.bal), e.total)
			}
			c.rows += int64(n)
			return nil
		})
	})
}

func (e *xshardEnv) counters() (counters, error) {
	c := counters{}
	for i := 0; i < e.r.NumShards(); i++ {
		if err := c.addRemote(e.ctx, e.r.Shard(i)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	m := e.r.ShardMetrics()
	c["client.shard.single_commits"] = float64(m.SingleCommits.Load())
	c["client.shard.cross_commits"] = float64(m.CrossCommits.Load())
	c["client.shard.scatter_scans"] = float64(m.ScatterScans.Load())
	return c, nil
}

func (e *xshardEnv) pages() uint32 {
	var n uint32
	for _, w := range e.worlds {
		n += w.DB.Stats().Pages
	}
	return n
}

func (e *xshardEnv) probe(c *caller) (float64, float64, error) {
	n, err := allocs(func() error { return e.audit(c) })
	return float64(len(e.bal)), n, err
}

// verify reads every balance back through the router.
func (e *xshardEnv) verify() ([]string, error) {
	c := newCaller(0, 0, 0, nil)
	err := e.r.View(e.ctx, func(tx *client.STx) error {
		_, err := tx.Forall(&client.Scan{Class: e.stock}, func(oid ode.OID, o *ode.Object) (bool, error) {
			if q := o.MustGet("qty").Int(); q != e.bal[oid] {
				c.mismatch("xshard: after the run account %d holds %d, model %d", oid, q, e.bal[oid])
			}
			return true, nil
		})
		return err
	})
	return c.bad, err
}

func (e *xshardEnv) close() {
	if e.r != nil {
		e.r.Close()
	}
	for i, srv := range e.srvs {
		srv.Close()
		<-e.done[i]
	}
	for _, w := range e.worlds {
		w.Close()
	}
}
