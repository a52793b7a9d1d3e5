package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// E14's offered load: govOverload × govSlots writers against govSlots
// admission slots, each transaction holding its slot for govHold (a
// slow client) under a govDeadline budget. Without the hold, µs-scale
// commits recycle the slots so fast the gate never engages.
const (
	govSlots    = 4
	govOverload = 8
	govDeadline = 50 * time.Millisecond
	govHold     = 500 * time.Microsecond
)

// e1 (WE §2.2–2.5): pnew N stockitems into a fresh store, scan the
// extent, then close, reopen and scan it again.
func e1(r *run) {
	for _, n := range []int{r.n(1000), r.n(10000), r.n(100000)} {
		label := fmt.Sprintf("objects=%d ", n)
		var w *World // the last store the create case filled
		r.cleanup(func() {
			if w != nil {
				w.Close()
			}
		})
		r.timed(label+"create", 0, 1, func(reps int) (time.Duration, Extra) {
			var total time.Duration
			for i := 0; i < reps; i++ {
				if w != nil {
					w.Close()
				}
				w = newWorld(nil)
				total += timeIt(1, func() { loadStock(w, n) })
			}
			check(w.DB.Checkpoint())
			return total / time.Duration(reps), Extra{"pages": float64(w.DB.Stats().Pages)}
		})
		if w == nil { // the create case was filtered out
			w = newWorld(nil)
			loadStock(w, n)
		}
		r.op(label+"scan", 3, func() { expect("scan", count(w.DB, w.Stock, nil), n) })
		r.op(label+"reopen+scan", 3, func() {
			check(w.DB.Close())
			s, w2 := Schema()
			db, err := ode.Open(filepath.Join(w.Dir, "bench.odb"), s, &ode.Options{NoSync: true})
			check(err)
			w2.DB, w2.Dir = db, w.Dir
			*w = *w2
			expect("reopen scan", count(w.DB, w.Stock, nil), n)
		})
	}
}

// e2 (PC §3): the forall extent iterator against a CODASYL-style
// pointer chase over the same number of objects.
func e2(r *run) {
	n := r.n(50000)
	w := r.world(nil)
	loadStock(w, n)
	head, err := w.LoadChain(n)
	check(err)
	label := fmt.Sprintf("N=%d ", n)
	r.op(label+"forall-iterator", 3, func() { expect("forall", count(w.DB, w.Stock, nil), n) })
	r.op(label+"pointer-navigation", 3, func() {
		hops := 0
		view(w.DB, func(tx *ode.Tx) error {
			for oid := head; oid != ode.NilOID; hops++ {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				oid = o.MustGet("next").OID()
			}
			return nil
		})
		expect("pointer chase", hops, n)
	})
}

// e3 (WE §3.1): suchthat selections of 1–100% of the extent, scanned
// (NoIndex) and through an index on the predicate's field.
func e3(r *run) {
	n := r.n(50000)
	w := r.world(nil)
	loadStock(w, n)
	check(w.DB.CreateIndex(w.Stock, "qty"))
	for _, path := range []string{"extent-scan", "index-scan"} {
		for _, pct := range []int{1, 10, 100} {
			want := n * pct / 100
			r.op(fmt.Sprintf("select=%3d%% %s", pct, path), 3, func() {
				expect(path, count(w.DB, w.Stock, func(q *ode.Query) *ode.Query {
					q = q.SuchThat(ode.Field("qty").Ge(ode.Int(int64(n - want))))
					if path == "extent-scan" {
						q = q.NoIndex()
					}
					return q
				}), want)
			})
		}
	}
}

// e4 (WE §3.1): an unordered forall against one with a by clause.
func e4(r *run) {
	n := r.n(50000)
	w := r.world(nil)
	loadStock(w, n)
	label := fmt.Sprintf("N=%d ", n)
	r.op(label+"unordered", 3, func() { expect("forall", count(w.DB, w.Stock, nil), n) })
	r.op(label+"by (name)", 3, func() {
		last, seen := "", 0
		view(w.DB, func(tx *ode.Tx) error {
			return ode.Forall(tx, w.Stock).By("name").Do(func(it ode.Item) (bool, error) {
				name := it.Obj.MustGet("name").Str()
				if name < last {
					return false, fmt.Errorf("by (name): %q after %q", name, last)
				}
				last, seen = name, seen+1
				return true, nil
			})
		})
		expect("by (name)", seen, n)
	})
}

// e5 (WE §3.1.1): forall over person visits exact instances; person*
// adds the student and faculty extents.
func e5(r *run) {
	n := r.n(40000)
	w := r.world(nil)
	_, err := w.LoadPersons(n)
	check(err)
	r.op(fmt.Sprintf("person  (%d objects)", n/2), 3, func() { expect("person", count(w.DB, w.Person, nil), n/2) })
	r.op(fmt.Sprintf("person* (%d objects)", n), 3, func() {
		expect("person*", count(w.DB, w.Person, (*ode.Query).Subtypes), n)
	})
}

// e6 (WE §3.1): the emp ⋈ dept equi-join under each forced strategy.
func e6(r *run) {
	nEmp, nDept := r.n(20000), 100
	w := r.world(nil)
	check(w.LoadEmpDept(nEmp, nDept))
	check(w.DB.CreateIndex(w.Dept, "deptno"))
	for _, s := range []ode.JoinStrategy{ode.NestedLoop, ode.HashJoin, ode.IndexNestedLoop} {
		reps := 3
		if s == ode.NestedLoop {
			reps = 1
		}
		r.op(fmt.Sprintf("emp(%d) ⋈ dept(%d) %s", nEmp, nDept, s), reps, func() {
			var pairs int
			view(w.DB, func(tx *ode.Tx) (err error) {
				pairs, err = ode.Forall(tx, w.Emp).JoinWith(ode.Forall(tx, w.Dept)).
					OnEq("deptno", "deptno").Strategy(s).Count()
				return err
			})
			expect("join pairs", pairs, nEmp)
		})
	}
}

// e7 (WE §3.2): the parts explosion as the O++ visit-inserted
// worklist, naive and semi-naive evaluation; all three must agree.
func e7(r *run) {
	w := r.world(nil)
	strategies := []struct {
		name string
		fn   func([]ode.Value, ode.SuccFunc) (*ode.Set, error)
	}{
		{"worklist (O++ loop)", ode.TransitiveClosure},
		{"naive", ode.NaiveTransitiveClosure},
		{"semi-naive", ode.SemiNaiveTransitiveClosure},
	}
	for _, depth := range []int{3, 6, 9} {
		root, total, err := w.LoadPartDAG(depth, 30, 5, int64(depth))
		check(err)
		closure := func(fn func([]ode.Value, ode.SuccFunc) (*ode.Set, error)) (size int) {
			view(w.DB, func(tx *ode.Tx) error {
				set, err := fn([]ode.Value{ode.Ref(root)}, Subparts(tx))
				if err == nil {
					size = set.Len()
				}
				return err
			})
			return size
		}
		size := closure(ode.TransitiveClosure)
		for _, s := range strategies {
			r.op(fmt.Sprintf("depth=%d parts=%d closure=%d %s", depth, total, size, s.name), 3, func() {
				expect(s.name+" closure", closure(s.fn), size)
			})
		}
	}
}

// e8 (WE §4): newversion, and generic against pinned derefs on
// version chains of growing length (one object per chain).
func e8(r *run) {
	w := r.world(nil)
	oid := loadStock(w, 1)[0]
	newVersions := func(oid ode.OID, k int) {
		update(w.DB, func(tx *ode.Tx) error {
			for i := 0; i < k; i++ {
				if _, err := tx.NewVersion(oid); err != nil {
					return err
				}
			}
			return nil
		})
	}
	r.op("newversion", 200, func() { newVersions(oid, 1) })
	for _, chain := range []int{0, 16, 128} {
		oid := loadStock(w, 1)[0]
		newVersions(oid, chain)
		r.op(fmt.Sprintf("chain=%3d generic deref", chain), 500, func() {
			view(w.DB, func(tx *ode.Tx) error { _, err := tx.Deref(oid); return err })
		})
		if chain > 0 {
			ref := ode.VRef{OID: oid, Version: uint32(chain / 2)}
			r.op(fmt.Sprintf("chain=%3d pinned deref", chain), 500, func() {
				view(w.DB, func(tx *ode.Tx) error { _, err := tx.DerefVersion(ref); return err })
			})
		}
	}
}

// e9 (WE §5): update transactions against 0, 1 and 4 constraints, and
// the cost of a violation's abort.
func e9(r *run) {
	for _, nc := range []int{0, 1, 4} {
		s := ode.NewSchema()
		acct := ode.NewClass("acct").Field("bal", ode.TInt)
		for k := 0; k < nc; k++ {
			acct = acct.Constraint(fmt.Sprintf("c%d", k), "bal >= 0",
				func(_ ode.Store, o *ode.Object) (bool, error) {
					return o.MustGet("bal").Int() >= 0, nil
				})
		}
		c := acct.Register(s)
		db := r.open(s, c)
		oid := pnew(db, c, ode.NewObject(c))
		r.op(fmt.Sprintf("update with %d constraints", nc), 500, func() { check(setInt(db, oid, "bal", 2)) })
		if nc == 1 {
			r.op("update violating 1 constraint (abort)", 500, func() {
				if setInt(db, oid, "bal", -1) == nil {
					failf("constraint violation committed")
				}
			})
		}
	}
}

// e10 (WE §6): the commit cost of no, quiescent and firing
// activations, once-only against perpetual triggers, and activation.
func e10(r *run) {
	s := ode.NewSchema()
	trig := func(name string, perpetual bool) *ode.TriggerDef {
		return &ode.TriggerDef{
			Name:      name,
			Perpetual: perpetual,
			Cond: func(_ ode.Store, o *ode.Object, _ []ode.Value) (bool, error) {
				return o.MustGet("qty").Int() < 0, nil
			},
			Action: func(st ode.Store, o *ode.Object, oid ode.OID, _ []ode.Value) error {
				o.MustSet("fires", ode.Int(o.MustGet("fires").Int()+1))
				o.MustSet("qty", ode.Int(0))
				return st.Update(oid, o)
			},
		}
	}
	item := ode.NewClass("item").Field("qty", ode.TInt).Field("fires", ode.TInt).
		Trigger(trig("watch", true)).Trigger(trig("once", false)).Register(s)
	db := r.open(s, item)
	svc := db.Triggers()
	activate := func(oid ode.OID, name string) (id ode.OID) {
		update(db, func(tx *ode.Tx) (err error) { id, err = svc.Activate(tx, oid, name); return err })
		return id
	}
	fires := func(oid ode.OID) (n int) {
		view(db, func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err == nil {
				n = int(o.MustGet("fires").Int())
			}
			return err
		})
		return n
	}
	// firing times updates that make the condition true, re-arming a
	// once-only trigger before each; every update must fire.
	firing := func(name, trigger string) {
		oid := pnew(db, item, ode.NewObject(item))
		if trigger == "watch" {
			activate(oid, trigger)
		}
		r.timed(name, 0, 500, func(reps int) (time.Duration, Extra) {
			before := fires(oid)
			d := timeIt(reps, func() {
				if trigger == "once" {
					activate(oid, trigger)
				}
				check(setInt(db, oid, "qty", -1))
			})
			expect(name+": firings", fires(oid)-before, reps)
			return d, nil
		})
	}

	bare := pnew(db, item, ode.NewObject(item))
	r.op("update, no activations", 500, func() { check(setInt(db, bare, "qty", 5)) })
	quiet := pnew(db, item, ode.NewObject(item))
	activate(quiet, "watch")
	r.op("update, armed but quiescent", 500, func() { check(setInt(db, quiet, "qty", 5)) })
	firing("update that fires (incl. action tx)", "watch")
	firing("activate once-only + update that fires", "once")
	r.op("activate + deactivate", 500, func() {
		id := activate(bare, "watch")
		update(db, func(tx *ode.Tx) error { return svc.Deactivate(tx, id) })
	})
}

// e11 (PC §2): the same object manipulation volatile and persistent.
func e11(r *run) {
	w := r.world(nil)
	r.op("volatile new + set", 200000, func() {
		o := ode.NewObject(w.Stock)
		o.MustSet("qty", ode.Int(1))
		if o.MustGet("qty").Int() != 1 {
			failf("volatile object lost its field")
		}
	})
	r.op("pnew + commit (nosync)", 2000, func() {
		o := ode.NewObject(w.Stock)
		o.MustSet("qty", ode.Int(1))
		pnew(w.DB, w.Stock, o)
	})
}

// e12: crash with N committed objects only in the WAL, then time the
// repair-on-open and verify every object survived.
func e12(r *run) {
	for _, n := range []int{r.n(5000), r.n(20000)} {
		r.whole(Case{Name: fmt.Sprintf("crash with %d objects in WAL recover+verify", n)}, func() (time.Duration, Extra) {
			dir, err := os.MkdirTemp("", "ode-bench")
			check(err)
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "r.odb")
			s, w := Schema()
			w.DB, err = ode.Open(path, s, &ode.Options{NoSync: true})
			check(err)
			err = w.DB.CreateCluster(w.Stock)
			if err == nil {
				_, err = w.LoadStock(n)
			}
			w.DB.CrashForTesting()
			check(err)
			start := time.Now()
			s2, w2 := Schema()
			db, err := ode.Open(path, s2, &ode.Options{NoSync: true})
			d := time.Since(start)
			check(err)
			defer db.Close()
			expect("recovered objects", count(db, w2.Stock, nil), n)
			return d, nil
		})
	}
}

// e13: one serial cluster scan, the baseline, and concurrent derefs
// of a cache-resident hot set at 1..Workers goroutines, each goroutine
// in a read transaction of its own (time per deref across all
// goroutines).
func e13(r *run) {
	n := r.n(50000)
	w := r.world(nil)
	oids := loadStock(w, n)
	hot := oids[:min(len(oids), 4000)]

	scan := func() {
		var sum int64
		view(w.DB, func(tx *ode.Tx) error {
			return ode.Forall(tx, w.Stock).Snapshot().Do(func(it ode.Item) (bool, error) {
				sum += it.Obj.MustGet("qty").Int()
				return true, nil
			})
		})
		if sum != int64(n)*int64(n-1)/2 {
			failf("cluster scan summed %d", sum)
		}
	}
	scan() // untimed warm-up, so the row is not charged the cold pool
	r.timed("cluster-scan workers=1", 1, 3, func(reps int) (time.Duration, Extra) {
		return timeIt(reps, scan), Extra{}
	})

	maxW := r.Workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	counts := []int{1}
	for nw := 2; nw < maxW; nw *= 2 {
		counts = append(counts, nw)
	}
	if maxW > 1 {
		counts = append(counts, maxW)
	}
	var base time.Duration
	for _, nw := range counts {
		r.timed(fmt.Sprintf("deref workers=%d", nw), nw, 1, func(reps int) (time.Duration, Extra) {
			perG := r.n(200000) / nw
			st0 := w.DB.Stats()
			d := timeIt(reps, func() {
				// A transaction is not safe for concurrent use: each
				// goroutine reads in its own.
				errc := make(chan error, nw)
				for g := 0; g < nw; g++ {
					go func(i int) {
						errc <- w.DB.View(func(tx *ode.Tx) error {
							for k := 0; k < perG; k, i = k+1, i+1 {
								if _, err := tx.Deref(hot[i%len(hot)]); err != nil {
									return err
								}
							}
							return nil
						})
					}(g * 7919)
				}
				for g := 0; g < nw; g++ {
					check(<-errc)
				}
			})
			st := w.DB.Stats()
			x := Extra{}
			if hits := float64(st.Object.CacheHits - st0.Object.CacheHits); hits > 0 {
				x["cache_hit_pct"] = 100 * hits / (hits + float64(st.Object.CacheMisses-st0.Object.CacheMisses))
			}
			d /= time.Duration(nw * perG)
			if nw == 1 {
				base = d
			} else if base > 0 && d > 0 {
				x["speedup"] = float64(base) / float64(d)
			}
			return d, x
		})
	}
}

// e14: an overload burst against no admission gate, a gate with no
// queue and a gate with a bounded queue, every outcome classified by
// the typed error taxonomy; then an append-heavy writer under WAL
// limits, whose peak must stay near the hard bound.
func e14(r *run) {
	offered, perG := govSlots*govOverload, max(r.n(200), 20)
	burst := func(name string, opts *ode.Options) {
		r.whole(Case{Name: name}, func() (time.Duration, Extra) { return governedBurst(opts, offered, perG) })
	}
	burst("ungoverned", &ode.Options{NoSync: true})
	burst(fmt.Sprintf("governed slots=%d queue=none", govSlots),
		&ode.Options{NoSync: true, MaxConcurrentTx: govSlots, MaxQueuedTx: -1})
	burst(fmt.Sprintf("governed slots=%d queue=%d", govSlots, 2*govSlots),
		&ode.Options{NoSync: true, MaxConcurrentTx: govSlots})

	// The soft limit kicks the background checkpointer; the hard limit
	// stalls commits when the writer outruns it.
	const soft, hard = 64 << 10, 256 << 10
	w := r.world(&ode.Options{NoSync: true, WALSoftLimit: soft, WALHardLimit: hard})
	payload := strings.Repeat("x", 1024)
	var peak int64
	r.timed(fmt.Sprintf("bounded WAL soft=%dKiB hard=%dKiB", soft>>10, hard>>10), 0, max(r.n(2000), 200),
		func(reps int) (time.Duration, Extra) {
			d := timeIt(reps, func() {
				pnew(w.DB, w.Stock, stock(w.Stock, payload, 1))
				peak = max(peak, w.DB.Stats().WALBytes)
			})
			// Let the checkpointer drain the tail, so auto_ckpt counts
			// the kicks the soft limit issued.
			for wait := time.Now(); w.DB.Stats().WALBytes >= soft && time.Since(wait) < time.Second; {
				time.Sleep(time.Millisecond)
			}
			if peak > hard+64<<10 {
				failf("WAL peaked at %d bytes, far beyond the %d hard limit", peak, hard)
			}
			st := w.DB.Stats()
			return d, Extra{"commits": float64(reps), "peak_wal_kb": float64(peak >> 10),
				"auto_ckpt": float64(st.WAL.AutoCheckpoints), "stalls": float64(st.WAL.BackpressureStalls)}
		})
}

// governedBurst drives offered writers, each attempting perG
// single-object updates under govDeadline, against a fresh store
// opened with opts. It returns the mean commit latency.
func governedBurst(opts *ode.Options, offered, perG int) (time.Duration, Extra) {
	w := newWorld(opts)
	defer w.Close()
	oids := loadStock(w, 64)
	var commits, rejects, timeouts, commitNs atomic.Int64
	var failure atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < offered; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				oid := oids[(g*7919+k)%len(oids)]
				ctx, cancel := context.WithTimeout(context.Background(), govDeadline)
				t0 := time.Now()
				err := w.DB.RunTxCtx(ctx, func(tx *ode.Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					time.Sleep(govHold)
					o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1))
					return tx.Update(oid, o)
				})
				cancel()
				switch {
				case err == nil:
					commits.Add(1)
					commitNs.Add(time.Since(t0).Nanoseconds())
				case errors.Is(err, ode.ErrOverloaded):
					rejects.Add(1)
				case errors.Is(err, ode.ErrTxTimeout), errors.Is(err, ode.ErrCanceled):
					timeouts.Add(1)
				default:
					failure.CompareAndSwap(nil, &err)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if p := failure.Load(); p != nil {
		check(*p)
	}
	var mean time.Duration
	if n := commits.Load(); n > 0 {
		mean = time.Duration(commitNs.Load() / n)
	}
	return mean, Extra{
		"commits":  float64(commits.Load()),
		"rejects":  float64(rejects.Load()),
		"timeouts": float64(timeouts.Load()),
		"waits":    float64(w.DB.Stats().Txn.AdmissionWaits),
		"tps":      float64(commits.Load()) / elapsed.Seconds(),
	}
}

// e15 prices the network hop: the same operations embedded, remote
// over the wire protocol (an in-process loopback server, or the
// ode-server at Driver.Connect started with -bench-schema) and remote
// pipelined.
func e15(r *run) {
	nItems := r.n(5000)
	const batch = 20
	walk := max(r.n(400), batch)
	w := r.world(nil)
	oids := loadStock(w, nItems)
	addr := r.Connect
	if addr == "" {
		addr = r.serve(r.world(nil))
	}
	c, cw := r.dial(addr, nil)
	ctx := context.Background()
	var roids []ode.OID
	check(c.RunTx(ctx, func(tx *client.Tx) error {
		futs, err := pipelinedPNews(tx, cw.Stock, nItems)
		roids = roids[:0]
		for _, f := range futs {
			oid, err := f.OID()
			if err != nil {
				return err
			}
			roids = append(roids, oid)
		}
		return err
	}))

	next := stride(oids)
	derefs(r, "deref/op embedded", 0, walk, func(walk int) {
		view(w.DB, func(tx *ode.Tx) error {
			for i := 0; i < walk; i++ {
				if _, err := tx.Deref(next()); err != nil {
					return err
				}
			}
			return nil
		})
	}, nil)
	rnext := stride(roids)
	derefs(r, "deref/op remote", 0, walk, func(walk int) { remoteWalk(c, rnext, walk) }, nil)

	label := fmt.Sprintf("suchthat scan (n=%d) ", nItems)
	half := ode.Int(int64(nItems / 2))
	r.op(label+"embedded", 3, func() {
		expect("suchthat", count(w.DB, w.Stock, func(q *ode.Query) *ode.Query {
			return q.SuchThat(ode.Field("qty").Ge(half))
		}), nItems-nItems/2)
	})
	r.op(label+"remote", 3, func() {
		check(c.RunTx(ctx, func(tx *client.Tx) error {
			_, err := tx.Count(&client.Scan{Class: cw.Stock, Field: "qty", Op: client.CmpGe, Value: half})
			return err
		}))
	})

	perTx := func(name string, tx func()) {
		r.timed(fmt.Sprintf("pnew/op (tx of %d) %s", batch, name), 0, walk/batch,
			func(reps int) (time.Duration, Extra) { return timeIt(reps, tx) / batch, nil })
	}
	perTx("embedded", func() {
		update(w.DB, func(tx *ode.Tx) error {
			for i := 0; i < batch; i++ {
				if _, err := tx.PNew(w.Stock, stock(w.Stock, "e15", i)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	perTx("remote", func() {
		check(c.RunTx(ctx, func(tx *client.Tx) error {
			for i := 0; i < batch; i++ {
				if _, err := tx.PNew(cw.Stock, stock(cw.Stock, "e15", i)); err != nil {
					return err
				}
			}
			return nil
		}))
	})
	perTx("remote pipelined", func() {
		check(c.RunTx(ctx, func(tx *client.Tx) error {
			futs, err := pipelinedPNews(tx, cw.Stock, batch)
			for _, f := range futs {
				if _, err := f.OID(); err != nil {
					return err
				}
			}
			return err
		}))
	})
}

// e16 prices the commit and wire fast paths. Group commit: concurrent
// committers of 20-pnew transactions against a sync-on-commit store,
// serialized fsyncs (GroupCommit.Disable) against shared ones; the win
// appears only under concurrency. Client object cache: remote derefs
// of a resident working set, cache disabled against a warmed cache
// (the first touch per transaction revalidates by tag, repeats are
// local). ci/bench_gate.sh gates the tx20 rows at workers=4 by name.
// The third fast path, the frame codec, is BenchmarkFrameRoundTrip in
// internal/wire.
func e16(r *run) {
	const batch = 20
	txs := max(r.n(60), 8)
	for _, nw := range []int{1, 4, 8} {
		var serial time.Duration
		r.whole(Case{Name: fmt.Sprintf("tx%d pnew serial-fsync", batch), Workers: nw}, func() (time.Duration, Extra) {
			serial, _ = committers(nw, txs, batch, true)
			return serial, nil
		})
		r.whole(Case{Name: fmt.Sprintf("tx%d pnew group-commit", batch), Workers: nw}, func() (time.Duration, Extra) {
			d, st := committers(nw, txs, batch, false)
			x := Extra{}
			if serial > 0 {
				x["speedup"] = float64(serial) / float64(d)
			}
			if st.WAL.GroupCommits > 0 {
				x["avg_group"] = float64(st.WAL.GroupCommitSize) / float64(st.WAL.GroupCommits)
			}
			return d, x
		})
	}

	rw := r.world(nil)
	ws := loadStock(rw, max(r.n(2000), 256))[:256]
	addr := r.serve(rw)
	walk := max(r.n(2000), 400)
	cold, _ := r.dial(addr, &client.Options{CacheSize: -1})
	coldNext, warmNext := stride(ws), stride(ws)
	var coldDeref time.Duration
	derefs(r, "remote deref no-cache", 1, walk, func(walk int) { remoteWalk(cold, coldNext, walk) }, func(d time.Duration) Extra {
		coldDeref = d
		return nil
	})
	warm, _ := r.dial(addr, nil)
	// Fill pass: every working-set object becomes a cached miss, so the
	// measured transactions see only revalidations and local hits.
	remoteWalk(warm, stride(ws), len(ws))
	derefs(r, "remote deref warm-cache", 1, walk, func(walk int) { remoteWalk(warm, warmNext, walk) }, func(d time.Duration) Extra {
		met := warm.CacheMetrics()
		x := Extra{"hits": float64(met.Hits.Load()), "misses": float64(met.Misses.Load())}
		if coldDeref > 0 {
			x["speedup"] = float64(coldDeref) / float64(d)
		}
		return x
	})
}

// committers runs nw goroutines, each committing txs transactions of
// batch pnews against a fresh fsync-on-commit store, and returns the
// time per transaction and the store's final stats.
func committers(nw, txs, batch int, serial bool) (time.Duration, ode.Stats) {
	w := newWorld(&ode.Options{GroupCommit: ode.GroupCommitOptions{Disable: serial}})
	defer w.Close()
	errc := make(chan error, nw)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < nw; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := 0; t < txs; t++ {
				err := w.DB.RunTx(func(tx *ode.Tx) error {
					for i := 0; i < batch; i++ {
						name := fmt.Sprintf("e16-%d-%d-%d", g, t, i)
						if _, err := tx.PNew(w.Stock, stock(w.Stock, name, i)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	d := time.Since(start) / time.Duration(nw*txs)
	close(errc)
	check(<-errc)
	return d, w.DB.Stats()
}

// derefs declares a case of reps deref walks, each one transaction of
// walk derefs, reported per deref; extra, when set, supplies the row's
// extras from the time per deref.
func derefs(r *run, name string, workers, walk int, tx func(walk int), extra func(time.Duration) Extra) {
	r.timed(name, workers, 3, func(reps int) (time.Duration, Extra) {
		d := timeIt(reps, func() { tx(walk) }) / time.Duration(walk)
		if extra == nil {
			return d, nil
		}
		return d, extra(d)
	})
}

// stride returns a walk over oids in a fixed stride that resumes
// where the previous call stopped.
func stride(oids []ode.OID) func() ode.OID {
	k := 0
	return func() ode.OID {
		k = (k + 7919) % len(oids)
		return oids[k]
	}
}

// remoteWalk derefs walk objects from next in one client transaction.
func remoteWalk(c *client.Client, next func() ode.OID, walk int) {
	check(c.RunTx(context.Background(), func(tx *client.Tx) error {
		for i := 0; i < walk; i++ {
			if _, err := tx.Deref(next()); err != nil {
				return err
			}
		}
		return nil
	}))
}

func pipelinedPNews(tx *client.Tx, c *ode.Class, n int) ([]*client.Future, error) {
	p := tx.Pipeline()
	futs := make([]*client.Future, n)
	for i := range futs {
		futs[i] = p.PNew(c, stock(c, "e15", i))
	}
	return futs, p.Flush()
}

// bufferPoolSweep: extent-scan time against buffer pool size (the
// working set is about 1 250 pages at full size).
func bufferPoolSweep(r *run) {
	n := r.n(50000)
	for _, pages := range []int{64, 256, 4096} {
		w := r.world(&ode.Options{NoSync: true, PoolPages: pages})
		loadStock(w, n)
		r.op(fmt.Sprintf("pool=%d", pages), 3, func() { expect("scan", count(w.DB, w.Stock, nil), n) })
	}
}

// commitDurability: one-pnew commits with an fsync each against
// NoSync (E16's group commit amortizes the fsync).
func commitDurability(r *run) {
	for _, nosync := range []bool{false, true} {
		name := "fsync"
		if nosync {
			name = "nosync"
		}
		w := r.world(&ode.Options{NoSync: nosync})
		r.op(name, 200, func() {
			o := ode.NewObject(w.Stock)
			o.MustSet("qty", ode.Int(1))
			pnew(w.DB, w.Stock, o)
		})
	}
}

// newWorld opens a world the caller closes.
func newWorld(opts *ode.Options) *World {
	w, err := NewWorld(opts)
	check(err)
	return w
}

// world opens a world closed when the experiment ends.
func (r *run) world(opts *ode.Options) *World {
	w := newWorld(opts)
	r.cleanup(w.Close)
	return w
}

// open opens a NoSync store of schema s in a fresh temp directory with
// an extent for each class; both go when the experiment ends.
func (r *run) open(s *ode.Schema, classes ...*ode.Class) *ode.DB {
	dir, err := os.MkdirTemp("", "ode-bench")
	check(err)
	r.cleanup(func() { os.RemoveAll(dir) })
	db, err := ode.Open(filepath.Join(dir, "x.odb"), s, &ode.Options{NoSync: true})
	check(err)
	r.cleanup(func() { db.Close() })
	for _, c := range classes {
		check(db.CreateCluster(c))
	}
	return db
}

// serve starts an in-process server on w's store and returns its
// address; it stops when the experiment ends.
func (r *run) serve(w *World) string {
	srv := server.New(w.DB, nil)
	a, err := srv.Listen("127.0.0.1:0")
	check(err)
	go srv.Serve(nil)
	r.cleanup(func() { srv.Close() })
	return a.String()
}

// dial connects a client with the experiment schema to addr.
func (r *run) dial(addr string, opts *client.Options) (*client.Client, *World) {
	schema, cw := Schema()
	c, err := client.Dial(addr, schema, opts)
	if err != nil {
		failf("dial %s: %v", addr, err)
	}
	r.cleanup(func() { c.Close() })
	return c, cw
}

func loadStock(w *World, n int) []ode.OID {
	oids, err := w.LoadStock(n)
	check(err)
	return oids
}

// stock is a stockitem image with every field set.
func stock(c *ode.Class, name string, qty int) *ode.Object {
	o := ode.NewObject(c)
	o.MustSet("name", ode.Str(name))
	o.MustSet("price", ode.Float(1))
	o.MustSet("qty", ode.Int(int64(qty)))
	o.MustSet("threshold", ode.Int(0))
	return o
}

func pnew(db *ode.DB, c *ode.Class, o *ode.Object) (oid ode.OID) {
	update(db, func(tx *ode.Tx) (err error) { oid, err = tx.PNew(c, o); return err })
	return oid
}

// setInt sets one int field of oid in a transaction of its own.
func setInt(db *ode.DB, oid ode.OID, field string, v int64) error {
	return db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet(field, ode.Int(v))
		return tx.Update(oid, o)
	})
}

func view(db *ode.DB, fn func(tx *ode.Tx) error)   { check(db.View(fn)) }
func update(db *ode.DB, fn func(tx *ode.Tx) error) { check(db.RunTx(fn)) }

// count counts c's extent, through refine when it is set, in a
// read-only transaction.
func count(db *ode.DB, c *ode.Class, refine func(*ode.Query) *ode.Query) (n int) {
	view(db, func(tx *ode.Tx) (err error) {
		q := ode.Forall(tx, c)
		if refine != nil {
			q = refine(q)
		}
		n, err = q.Count()
		return err
	})
	return n
}
