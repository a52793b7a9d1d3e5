package main

import (
	"math/rand"

	"ode"
	"ode/internal/bench"
	"ode/internal/workload"
)

// scan: 50 000 stockitems (about 1 300 pages: 1.27× the default
// 1 024-page pool, 12× the 4 096-object cache), embedded. One caller
// repeats read-only full-extent counts of price >= p; the other
// decrements qty on items armed with the perpetual restock trigger.
const (
	scanItems = 50_000
	scanArmed = 1_000
	// restockLot is the restock trigger's argument: the amount added
	// back when qty drops below the item's threshold (100).
	restockLot = 150
	threshold  = 100
)

var scanSpec = &spec{
	name:     "scan",
	readKind: "scan",
	opKind:   "scan",
	embedded: true,
	setup:    func(seed int64) (env, error) { return newScan(seed, scanItems, scanArmed) },
	figures: []figure{
		{name: "scan_rows_per_s", kind: "scan", unit: "rows/s", scale: scanItems},
		{name: "scan_p50_ms", kind: "scan", unit: "ms", q: 0.5, scale: 1e-3},
		{name: "write_p50_us", kind: "write", unit: "us", q: 0.5, scale: 1},
		{name: "write_p99_us", kind: "write", unit: "us", q: 0.99, scale: 1},
	},
}

type scanEnv struct {
	w     *bench.World
	store workload.Store
	n     int
	armed []ode.OID
	qty   map[ode.OID]int64 // model of the armed items' qty
	// skew is added to every expected count; only the self-test sets it,
	// to show that a wrong expectation fails the run.
	skew int
}

func newScan(seed int64, items, armed int) (*scanEnv, error) {
	w, err := bench.NewWorld(&ode.Options{})
	if err != nil {
		return nil, err
	}
	e := &scanEnv{w: w, store: workload.NewEmbeddedStore(w), n: items, qty: map[ode.OID]int64{}}
	oids, err := w.LoadStock(items)
	if err != nil {
		w.Close()
		return nil, err
	}
	// Arm a seeded subset, each set just above its threshold so the
	// writer's decrements soon make the trigger fire.
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(items)[:armed] {
		e.armed = append(e.armed, oids[i])
		e.qty[oids[i]] = threshold + int64(rng.Intn(100))
	}
	const batch = 250
	for start := 0; start < len(e.armed); start += batch {
		part := e.armed[start:min(start+batch, len(e.armed))]
		err := w.DB.RunTx(func(tx *ode.Tx) error {
			for _, oid := range part {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				o.MustSet("qty", ode.Int(e.qty[oid]))
				if err := tx.Update(oid, o); err != nil {
					return err
				}
				if _, err := w.DB.Triggers().Activate(tx, oid, "restock", ode.Int(restockLot)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	return e, nil
}

// expected is the model's count of items with price >= p: LoadStock
// gives item i the price i/100, and nothing changes a price.
func (e *scanEnv) expected(p int64) int {
	n := 0
	for i := 0; i < e.n; i++ {
		if float64(i)/100 >= float64(p) {
			n++
		}
	}
	return n + e.skew
}

// count runs one full-extent forall count in a read-only View.
func (e *scanEnv) count(c *caller, p int64) error {
	return c.view(e.store, func(t workload.Tx) error {
		var got int
		err := c.call("forall", func() (err error) {
			got, err = t.Count(e.w.Stock, "price", p)
			return err
		})
		if err != nil {
			return err
		}
		if want := e.expected(p); got != want {
			c.mismatch("scan: count(price >= %d) = %d, model %d", p, got, want)
		}
		c.rows += int64(e.n)
		return nil
	})
}

func (e *scanEnv) steps() []func(*caller) {
	scanner := func(c *caller) {
		p := int64(c.rng.Intn(e.n/100 + 1))
		c.tx("scan", func() error { return e.count(c, p) })
	}
	open := func() (objTx, func() error, func(), error) {
		tx := e.w.DB.Begin()
		return tx, tx.Commit, tx.Abort, nil
	}
	writer := func(c *caller) {
		oid := e.armed[c.rng.Intn(len(e.armed))]
		dec := int64(1 + c.rng.Intn(30))
		var next int64
		c.tx("write", func() error {
			err := c.write(open, func(t ops) error {
				o, err := t.Deref(oid)
				if err != nil {
					return err
				}
				q := o.MustGet("qty").Int()
				if q != e.qty[oid] {
					c.mismatch("scan: item %d has qty %d, model %d", oid, q, e.qty[oid])
				}
				next = q - dec
				o.MustSet("qty", ode.Int(next))
				return t.Update(oid, o)
			})
			if err == nil {
				// The perpetual trigger fires inline at commit.
				if next < threshold {
					next += restockLot
				}
				e.qty[oid] = next
				c.rows++
			}
			return err
		})
	}
	return []func(*caller){scanner, writer}
}

func (e *scanEnv) counters() (counters, error) {
	c := counters{}
	return c, c.addDB(e.w.DB)
}

func (e *scanEnv) probe(c *caller) (float64, float64, error) {
	n, err := allocs(func() error { return e.count(c, 0) })
	return float64(e.n), n, err
}

func (e *scanEnv) verify() ([]string, error) {
	c := newCaller(0, 0, 0, nil)
	if err := e.count(c, 0); err != nil {
		return nil, err
	}
	err := e.w.DB.View(func(tx *ode.Tx) error {
		for _, oid := range e.armed {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			if q := o.MustGet("qty").Int(); q != e.qty[oid] {
				c.mismatch("scan: after the run item %d has qty %d, model %d", oid, q, e.qty[oid])
			}
		}
		return nil
	})
	return c.bad, err
}

func (e *scanEnv) pages() uint32 { return e.w.DB.Stats().Pages }

func (e *scanEnv) close() { e.w.Close() }
