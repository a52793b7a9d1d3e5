package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"ode"
	"ode/client"
	"ode/internal/obs"
)

// E17 and E18 run six OO-bench-style mixes (EXPERIMENTS.md): hot/cold
// skewed point derefs, pointer-chasing traversals, version churn,
// trigger storms, the paper's bill-of-materials fixpoint and a
// larger-than-RAM churn that drives online compaction. A mix's op
// sequence is a pure function of (seed, workers, short), so its op
// counts are the same on every transport and every run, and
// ci/workload_gate.sh gates them exactly against
// WORKLOAD_BASELINE.json.

// Tx is the operation surface a mix step uses: the intersection of the
// embedded ode.Tx and the remote client.Tx and client.STx APIs.
type Tx interface {
	txOps
	// Count counts the c objects whose int field is >= min, through an
	// index or a scan.
	Count(c *ode.Class, field string, min int64) (int, error)
}

// txOps are the methods all three transaction types share.
type txOps interface {
	PNew(c *ode.Class, o *ode.Object) (ode.OID, error)
	Deref(oid ode.OID) (*ode.Object, error)
	Update(oid ode.OID, o *ode.Object) error
	PDelete(oid ode.OID) error
	NewVersion(oid ode.OID) (ode.VRef, error)
	DerefVersion(ref ode.VRef) (*ode.Object, error)
	DeleteVersion(ref ode.VRef) error
}

// Store is where a mix runs: an embedded database, one server, or a
// shard group behind the router. Every store executes the same steps;
// only the transport differs.
type Store interface {
	// World exposes the class handles. A remote store's World carries
	// classes only (its DB field is nil).
	World() *World
	// DB returns the embedded database, or nil for a remote store.
	DB() *ode.DB
	RunTx(fn func(Tx) error) error
	View(fn func(Tx) error) error
	// CounterSnapshot flattens the metric registry (of every shard,
	// summed) to its scalar counters and gauges.
	CounterSnapshot() (map[string]int64, error)
}

// txn is a transaction type the one Store adapter covers. Count
// differs between them (see storeTx.Count).
type txn interface {
	*ode.Tx | *client.Tx | *client.STx
	txOps
}

// txStore is the Store over any transport: src is the *ode.DB, the
// *client.Client or the *client.Sharded its transactions run on.
type txStore struct {
	w   *World
	src any
}

func (s *txStore) World() *World { return s.w }
func (s *txStore) DB() *ode.DB   { return s.w.DB }

// CounterSnapshot reads the embedded registry, or the metrics of the
// server or of every shard.
func (s *txStore) CounterSnapshot() (map[string]int64, error) {
	switch src := s.src.(type) {
	case *ode.DB:
		return flattenCounters(src.MetricsRegistry().Snapshot()), nil
	case *client.Client:
		return serverCounters(src)
	}
	r := s.src.(*client.Sharded)
	shards := make([]*client.Client, r.NumShards())
	for i := range shards {
		shards[i] = r.Shard(i)
	}
	return serverCounters(shards...)
}

// RunTx and View call the transport directly, so the wrapping closure
// stays on the stack, and hand fn a storeTx, one pointer wide: a
// transaction allocates nothing for the adapter.
func (s *txStore) RunTx(fn func(Tx) error) error {
	switch src := s.src.(type) {
	case *ode.DB:
		return src.RunTx(wrap[*ode.Tx](fn))
	case *client.Client:
		return src.RunTx(context.Background(), wrap[*client.Tx](fn))
	}
	return s.src.(*client.Sharded).RunTx(context.Background(), wrap[*client.STx](fn))
}

func (s *txStore) View(fn func(Tx) error) error {
	switch src := s.src.(type) {
	case *ode.DB:
		return src.View(wrap[*ode.Tx](fn))
	case *client.Client:
		return src.View(context.Background(), wrap[*client.Tx](fn))
	}
	return s.src.(*client.Sharded).View(context.Background(), wrap[*client.STx](fn))
}

func wrap[T txn](fn func(Tx) error) func(T) error {
	return func(tx T) error { return fn(storeTx[T]{tx}) }
}

// storeTx is the one Tx adapter.
type storeTx[T txn] struct{ tx T }

func (t storeTx[T]) PNew(c *ode.Class, o *ode.Object) (ode.OID, error) { return t.tx.PNew(c, o) }
func (t storeTx[T]) Deref(oid ode.OID) (*ode.Object, error)            { return t.tx.Deref(oid) }
func (t storeTx[T]) Update(oid ode.OID, o *ode.Object) error           { return t.tx.Update(oid, o) }
func (t storeTx[T]) PDelete(oid ode.OID) error                         { return t.tx.PDelete(oid) }
func (t storeTx[T]) NewVersion(oid ode.OID) (ode.VRef, error)          { return t.tx.NewVersion(oid) }
func (t storeTx[T]) DerefVersion(ref ode.VRef) (*ode.Object, error)    { return t.tx.DerefVersion(ref) }
func (t storeTx[T]) DeleteVersion(ref ode.VRef) error                  { return t.tx.DeleteVersion(ref) }

// Count runs an embedded forall, or ships the predicate to the server
// (or every shard) as a client.Scan.
func (t storeTx[T]) Count(c *ode.Class, field string, min int64) (int, error) {
	if tx, ok := any(t.tx).(*ode.Tx); ok {
		return ode.Forall(tx, c).SuchThat(ode.Field(field).Ge(ode.Int(min))).Count()
	}
	scan := &client.Scan{Class: c, Field: field, Op: client.CmpGe, Value: ode.Int(min)}
	return any(t.tx).(interface {
		Count(*client.Scan) (int, error)
	}).Count(scan)
}

// NewEmbeddedStore adapts a loaded world (its DB must be open) into a
// Store.
func NewEmbeddedStore(w *World) Store { return &txStore{w, w.DB} }

// NewRemoteStore adapts a connected client into a Store. The world must
// come from Schema() (class handles only, no DB), the schema the client
// was dialed with.
func NewRemoteStore(c *client.Client, w *World) Store { return &txStore{w, c} }

// newShardedStore adapts a shard-group router into a Store: point ops
// route by OID, counts scatter-gather and multi-shard writes commit
// through 2PC. The world must come from Schema().
func newShardedStore(r *client.Sharded, w *World) Store { return &txStore{w, r} }

// serverCounters sums the scalar metrics of every server, so a shard
// group reports group-wide totals.
func serverCounters(servers ...*client.Client) (map[string]int64, error) {
	total := map[string]int64{}
	for i, c := range servers {
		raw, err := c.MetricsJSON(context.Background())
		if err != nil {
			return nil, err
		}
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("decode server %d metrics: %w", i, err)
		}
		for name, v := range flattenCounters(snap) {
			total[name] += v
		}
	}
	return total, nil
}

// flattenCounters keeps the scalar numeric metrics of a registry
// snapshot: the embedded registry's uint64 and int64 counters and
// gauges, and the server metrics JSON's float64s. Histograms drop out.
func flattenCounters(snap map[string]any) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for name, v := range snap {
		switch n := v.(type) {
		case uint64:
			out[name] = int64(n)
		case int64:
			out[name] = n
		case int:
			out[name] = int64(n)
		case float64:
			out[name] = int64(n)
		}
	}
	return out
}

// mix is one macro workload. Its run fails through check, like an
// experiment body.
type mix struct {
	name string
	// remoteOK marks the mixes that run through the client; the rest
	// need embedded APIs (trigger activation, DB.Compact).
	remoteOK bool
	// opts sizes an embedded run's database (nil: the bench defaults).
	opts func(short bool) *ode.Options
	run  func(m *mixRun)
}

// mixes in display order.
var mixes = []mix{
	{"points", true, nil, points},
	{"traverse", true, nil, traverse},
	{"versions", true, nil, versions},
	{"triggers", false, nil, triggers},
	{"bom", true, nil, bom},
	{"churn10x", false, func(short bool) *ode.Options {
		return &ode.Options{NoSync: true, PoolPages: churnPool(short)}
	}, churn10x},
}

// e17 runs every mix embedded, each in a fresh world, and the
// remote-capable four through a fresh loopback server or the
// ode-server at Driver.Connect.
func e17(r *run) {
	for _, m := range mixes {
		r.mix(m, "embedded", func() Store {
			var opts *ode.Options
			if m.opts != nil {
				opts = m.opts(r.Short)
			}
			return NewEmbeddedStore(r.world(opts))
		})
		if m.remoteOK {
			r.mix(m, "remote", func() Store {
				addr := r.Connect
				if addr == "" {
					addr = r.serve(r.world(nil))
				}
				return NewRemoteStore(r.dial(addr, nil))
			})
		}
	}
}

// e18 runs the remote-capable mixes through the sharding router over
// Driver.Shards; every empty address is a fresh loopback shard server.
func e18(r *run) {
	shards := r.Shards
	if len(shards) == 0 {
		shards = make([]string, 2)
	}
	for _, m := range mixes {
		if !m.remoteOK {
			continue
		}
		r.mix(m, fmt.Sprintf("sharded-%d", len(shards)), func() Store {
			addrs := append([]string(nil), shards...)
			for i, a := range addrs {
				if a == "" {
					addrs[i] = r.serve(r.world(&ode.Options{ShardCount: len(addrs), ShardSlot: i}))
				}
			}
			schema, cw := Schema()
			router, err := client.DialSharded(addrs, schema, nil)
			check(err)
			r.cleanup(func() { router.Close() })
			return newShardedStore(router, cw)
		})
	}
}

// mix declares the case of m in mode: each run gets a fresh store from
// open, closed again when the run ends.
func (r *run) mix(m mix, mode string, open func() Store) {
	seed, workers := r.Seed, r.Workers
	if seed == 0 {
		seed = 1
	}
	if workers <= 0 {
		workers = 4 // not GOMAXPROCS: the op counts depend on it
	}
	r.whole(Case{Name: m.name, Mode: mode, Workers: workers}, func() (d time.Duration, x Extra) {
		r.scoped(func() {
			s := open()
			mr := &mixRun{store: s, w: s.World(), seed: seed, workers: workers, short: r.Short,
				rng: rand.New(rand.NewSource(seed)), kinds: map[string]int64{}}
			before, err := s.CounterSnapshot()
			check(err)
			start := time.Now()
			m.run(mr)
			elapsed := time.Since(start)
			after, err := s.CounterSnapshot()
			check(err)
			d, x = mr.row(elapsed, before, after)
		})
		return d, x
	})
}

// mixRun is one run of a mix: its store, settings, latency histogram
// and op accounting.
type mixRun struct {
	store   Store
	w       *World
	seed    int64
	workers int
	short   bool
	rng     *rand.Rand // setup-phase randomness; workers get their own

	hist  obs.Histogram
	mu    sync.Mutex
	ops   int64
	kinds map[string]int64
	extra Extra // row extras the mix reports itself
}

// row returns the run's time per op and its extras: op counts,
// throughput, latency quantiles (histogram bucket upper bounds, so
// they overestimate by at most one bucket; the overflow bucket clamps
// to the last bound) and counter deltas.
func (m *mixRun) row(elapsed time.Duration, before, after map[string]int64) (d time.Duration, x Extra) {
	x = Extra{"ops": float64(m.ops)}
	maps.Copy(x, m.extra)
	for kind, n := range m.kinds {
		x["op."+kind] = float64(n)
	}
	for name, v := range after {
		if dv := v - before[name]; dv != 0 {
			x["ctr."+name] = float64(dv)
		}
	}
	s := m.hist.Snapshot()
	for _, q := range []struct {
		key string
		q   float64
	}{{"p50_ns", 0.50}, {"p90_ns", 0.90}, {"p99_ns", 0.99}, {"max_ns", 1}} {
		target, cum := max(uint64(q.q*float64(s.Count)), 1), uint64(0)
		for i, n := range s.Buckets {
			if cum += n; cum >= target {
				x[q.key] = float64(obs.BucketBound(min(i, obs.NumHistBuckets-2)).Nanoseconds())
				break
			}
		}
	}
	if m.ops > 0 {
		x["ops_per_sec"] = float64(m.ops) / elapsed.Seconds()
		d = elapsed / time.Duration(m.ops)
	}
	return d, x
}

// scaled picks the short or the full size.
func (m *mixRun) scaled(short, full int) int {
	if m.short {
		return short
	}
	return full
}

// count records n completed operations of the named kind.
func (m *mixRun) count(kind string, n int64) {
	m.mu.Lock()
	m.kinds[kind] += n
	m.ops += n
	m.mu.Unlock()
}

// op runs fn as one op whose latency the histogram records, and counts
// it when it succeeds.
func (m *mixRun) op(kind string, fn func() error) error {
	start := time.Now()
	err := fn()
	m.hist.Observe(time.Since(start))
	if err == nil {
		m.count(kind, 1)
	}
	return err
}

// fanout splits totalOps across the workers, each with its own PRNG
// seeded from (seed, worker index), so the op mix is a pure function
// of the seed whatever the scheduling.
func (m *mixRun) fanout(totalOps int, fn func(w int, rng *rand.Rand, ops int)) {
	workers := m.workers
	if workers > totalOps {
		workers = 1
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ops := totalOps / workers
		if w < totalOps%workers {
			ops++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = catch(func() { fn(w, rand.New(rand.NewSource(m.seed+int64(w)*1_000_003)), ops) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		check(err)
	}
}

// loadStock inserts n stock items (qty(i), threshold 100) through the
// store, 500 per transaction, so remote runs load over the wire too.
// namePad > 0 pads names to that width, which fixes the per-record
// footprint: churn10x sizes its data set in pages with it.
func (m *mixRun) loadStock(n, namePad int, qty func(i int) int64) []ode.OID {
	oids, err := batchInsert(m.store, n, 500, func(tx Tx, i int) (ode.OID, error) {
		name := fmt.Sprintf("wl-%07d", i)
		if namePad > len(name) {
			name = fmt.Sprintf("%-*s", namePad, name)
		}
		o := ode.NewObject(m.w.Stock)
		o.MustSet("name", ode.Str(name))
		o.MustSet("price", ode.Float(float64(i)/100))
		o.MustSet("qty", ode.Int(qty(i)))
		o.MustSet("threshold", ode.Int(100))
		return tx.PNew(m.w.Stock, o)
	})
	check(err)
	return oids
}

// identity is the qty of most mixes' stock: qty = i.
func identity(i int) int64 { return int64(i) }

// points: hot/cold skewed point derefs with a write tail, the
// OO-bench "simple read" pattern. 10% of the objects (a seeded random
// subset) take 80% of the reads; each worker's writes stay on its own
// partition, so concurrent transactions never contend on a write lock.
func points(m *mixRun) {
	n := m.scaled(2000, 20000)
	oids := m.loadStock(n, 0, identity)
	hot := append([]ode.OID(nil), oids...)
	m.rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	hot = hot[:len(hot)/10]
	m.fanout(m.scaled(4000, 60000), func(w int, rng *rand.Rand, ops int) {
		mine := partition(oids, w, m.workers)
		for done := 0; done < ops; {
			// Reads batch into one view transaction; writes commit one
			// at a time (single-lock transactions cannot deadlock
			// against the batched readers).
			batch := min(ops-done, 64)
			var updates []ode.OID
			check(m.store.View(func(tx Tx) error {
				for i := 0; i < batch; i++ {
					var err error
					switch roll := rng.Intn(100); {
					case roll < 80:
						err = m.op("deref.hot", func() error {
							_, err := tx.Deref(hot[rng.Intn(len(hot))])
							return err
						})
					case roll < 90:
						err = m.op("deref.cold", func() error {
							_, err := tx.Deref(oids[rng.Intn(len(oids))])
							return err
						})
					case roll < 98:
						updates = append(updates, mine[rng.Intn(len(mine))])
					default:
						err = m.op("count", func() error {
							_, err := tx.Count(m.w.Stock, "qty", int64(n/2))
							return err
						})
					}
					if err != nil {
						return err
					}
				}
				return nil
			}))
			for _, oid := range updates {
				check(m.op("update", func() error {
					return m.store.RunTx(func(tx Tx) error {
						o, err := tx.Deref(oid)
						if err != nil {
							return err
						}
						o.MustSet("price", ode.Float(float64(rng.Intn(10000))/100))
						return tx.Update(oid, o)
					})
				}))
			}
			done += batch
		}
	})
}

// traverse: pointer-chasing down a linked object chain, the
// CODASYL-style navigation clustering papers use to punish bad object
// placement. Every hop is a point deref through a Ref field.
func traverse(m *mixRun) {
	const hops = 50
	head, err := loadChain(m.store, m.scaled(1000, 8000), 500)
	check(err)
	// One full walk collects the cell OIDs for random restarts.
	var cells []ode.OID
	check(m.store.View(func(tx Tx) error {
		for oid := head; oid != ode.NilOID; {
			cells = append(cells, oid)
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			oid, _ = o.MustGet("next").AnyOID()
		}
		return nil
	}))
	m.fanout(m.scaled(300, 3000), func(w int, rng *rand.Rand, walks int) {
		for k := 0; k < walks; k++ {
			start := cells[rng.Intn(len(cells))]
			var steps int64
			check(m.op("walk", func() error {
				return m.store.View(func(tx Tx) error {
					oid := start
					for h := 0; h < hops && oid != ode.NilOID; h++ {
						o, err := tx.Deref(oid)
						if err != nil {
							return err
						}
						oid, _ = o.MustGet("next").AnyOID()
						steps++
					}
					return nil
				})
			}))
			m.count("cell.deref", steps)
		}
	})
}

// versions: version churn (45% newversion, 35% derefversion, 20%
// deleteversion), the paper's §4 machinery under load. Each worker
// versions only its own partition, so write locks never cross workers.
func versions(m *mixRun) {
	oids := m.loadStock(m.scaled(600, 4000), 0, identity)
	m.fanout(m.scaled(2400, 24000), func(w int, rng *rand.Rand, ops int) {
		mine := partition(oids, w, m.workers)
		var refs []ode.VRef // this worker's live frozen versions
		for i := 0; i < ops; i++ {
			switch roll := rng.Intn(100); {
			case roll < 45 || len(refs) == 0:
				oid := mine[rng.Intn(len(mine))]
				check(m.op("newversion", func() error {
					return m.store.RunTx(func(tx Tx) error {
						ref, err := tx.NewVersion(oid)
						if err == nil {
							refs = append(refs, ref)
						}
						return err
					})
				}))
			case roll < 80:
				ref := refs[rng.Intn(len(refs))]
				check(m.op("derefversion", func() error {
					return m.store.View(func(tx Tx) error {
						_, err := tx.DerefVersion(ref)
						return err
					})
				}))
			default:
				ref := refs[len(refs)-1]
				refs = refs[:len(refs)-1]
				check(m.op("deleteversion", func() error {
					return m.store.RunTx(func(tx Tx) error { return tx.DeleteVersion(ref) })
				}))
			}
		}
	})
}

// triggers: every item carries an armed perpetual restock trigger; the
// update stream drags qty below the threshold and the trigger fires
// inline at commit, doubling the write work. Embedded only: trigger
// activation is not in the wire protocol.
func triggers(m *mixRun) {
	oids := m.loadStock(m.scaled(400, 2000), 0, func(int) int64 { return 200 })
	db := m.store.DB()
	update(db, func(tx *ode.Tx) error {
		for _, oid := range oids {
			if _, err := db.Triggers().Activate(tx, oid, "restock", ode.Int(150)); err != nil {
				return err
			}
		}
		return nil
	})
	m.count("activate", int64(len(oids)))
	m.fanout(m.scaled(2000, 16000), func(w int, rng *rand.Rand, ops int) {
		mine := partition(oids, w, m.workers)
		for i := 0; i < ops; i++ {
			oid := mine[rng.Intn(len(mine))]
			dec := int64(1 + rng.Intn(30))
			check(m.op("update", func() error {
				return m.store.RunTx(func(tx Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					o.MustSet("qty", ode.Int(o.MustGet("qty").Int()-dec))
					return tx.Update(oid, o)
				})
			}))
		}
	})
}

// bom: the paper's bill-of-materials fixpoint (§3.2) as a workload:
// repeated transitive-closure traversals of a seeded part DAG by
// worklist, each hop a subparts-set deref.
func bom(m *mixRun) {
	root, parts, err := loadPartDAG(m.store, 5, m.scaled(40, 120), 4, m.seed)
	check(err)
	m.count("part.load", int64(parts))
	m.fanout(m.scaled(40, 200), func(w int, rng *rand.Rand, queries int) {
		for q := 0; q < queries; q++ {
			var visits int64
			check(m.op("bom.query", func() error {
				return m.store.View(func(tx Tx) error {
					seen := map[ode.OID]bool{root: true}
					work := []ode.OID{root}
					for len(work) > 0 {
						oid := work[len(work)-1]
						work = work[:len(work)-1]
						o, err := tx.Deref(oid)
						if err != nil {
							return err
						}
						visits++
						for _, v := range o.MustGet("subparts").Set().Elems() {
							if sub, ok := v.AnyOID(); ok && !seen[sub] {
								seen[sub] = true
								work = append(work, sub)
							}
						}
					}
					return nil
				})
			}))
			m.count("bom.visit", visits)
		}
	})
}

// churnPool is churn10x's buffer pool size in pages.
func churnPool(short bool) int {
	if short {
		return 32
	}
	return 128
}

// churn10x: the larger-than-RAM scenario. The database opens with a
// small buffer pool; the mix loads a padded data set ~10× the pool,
// deletes 85% of it (leaving the page file full of sparse pages), runs
// DB.Compact to reclaim them, derefs every survivor, refills into the
// freed space and compacts once more. Embedded only (Compact is a DB
// API).
func churn10x(m *mixRun) {
	// ~40 padded records per 4 KiB page: 400 per pool page is ~10× the
	// pool.
	n := churnPool(m.short) * 400
	oids := m.loadStock(n, 96, identity)
	m.count("insert", int64(len(oids)))

	// Delete 85% in batches; the survivors are a seeded random 15%.
	doomed := append([]ode.OID(nil), oids...)
	m.rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
	cut := len(doomed) * 85 / 100
	survivors, doomed := doomed[cut:], doomed[:cut]
	for start := 0; start < len(doomed); start += 500 {
		end := min(start+500, len(doomed))
		check(m.store.RunTx(func(tx Tx) error {
			for _, oid := range doomed[start:end] {
				if err := tx.PDelete(oid); err != nil {
					return err
				}
			}
			return nil
		}))
		m.count("delete", int64(end-start))
	}
	compact := func() error {
		_, err := m.store.DB().Compact()
		return err
	}
	check(m.op("compact", compact))

	// Every survivor must still deref: a scan 10× the pool, which the
	// pool cannot hold.
	m.fanout(len(survivors), func(w int, rng *rand.Rand, ops int) {
		mine := partition(survivors, w, m.workers)
		for i := 0; i < ops && i < len(mine); i++ {
			check(m.op("deref", func() error {
				return m.store.View(func(tx Tx) error {
					_, err := tx.Deref(mine[i%len(mine)])
					return err
				})
			}))
		}
	})

	// Refill a quarter of the deleted volume into the reclaimed pages,
	// then compact once more.
	m.count("insert", int64(len(m.loadStock(n/4, 96, identity))))
	check(m.op("compact", compact))
	m.extra = Extra{"pages": float64(m.store.DB().Stats().Pages)}
}

// partition slices oids into the w-th of workers contiguous,
// near-equal chunks (all of oids when that chunk would be empty).
func partition(oids []ode.OID, w, workers int) []ode.OID {
	lo, hi := len(oids)*w/workers, len(oids)*(w+1)/workers
	if lo == hi {
		return oids
	}
	return oids[lo:hi]
}
