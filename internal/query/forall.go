package query

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/txn"
)

// Query is a forall loop under construction:
//
//	forall x in C [*] [suchthat pred] [by key] { body }
//
// Build it with Forall and the chained modifiers, then run it with Do,
// Collect, or Count.
type Query struct {
	tx       *txn.Tx
	class    *core.Class
	subtypes bool
	pred     Pred
	byField  string
	byKey    func(Item) (core.Value, error)
	desc     bool
	snapshot bool
	noIndex  bool
	workers  int  // > 1: partition the scan across a worker pool
	internal bool // subquery of a join: excluded from forall/plan counters
	bare     bool // the body reads no object (Count): extent scans skip the decode
	images   bool // the body takes stored images (DoImages): extent scans skip the decode
	arena    []byte
	plan     string
}

// rowFn is a loop body inside the package: image is the row's stored
// encoding when the row comes undecoded (DoImages), else nil.
type rowFn func(it Item, image []byte) (bool, error)

// met returns the query metric set of the owning engine (never nil).
func (q *Query) met() *obs.QueryMetrics { return &q.tx.Metrics().Query }

// Forall starts a forall loop over the extent of class c within tx.
func Forall(tx *txn.Tx, c *core.Class) *Query {
	return &Query{tx: tx, class: c}
}

// Subtypes extends the iteration to the whole cluster hierarchy: the
// O++ `forall x in person*` form (paper, section 3.1.1).
func (q *Query) Subtypes() *Query {
	q.subtypes = true
	return q
}

// SuchThat adds the filtering clause. Multiple calls conjoin.
func (q *Query) SuchThat(p Pred) *Query {
	if q.pred == nil {
		q.pred = p
	} else {
		q.pred = And(q.pred, p)
	}
	return q
}

// By orders the iteration by a field value, ascending (the O++ `by`
// clause). Ordering implies snapshot semantics.
func (q *Query) By(field string) *Query {
	q.byField = field
	return q
}

// ByKey orders the iteration by a computed key.
func (q *Query) ByKey(fn func(Item) (core.Value, error)) *Query {
	q.byKey = fn
	return q
}

// Desc flips the ordering direction.
func (q *Query) Desc() *Query {
	q.desc = true
	return q
}

// Snapshot disables the paper's visit-inserted (fixpoint) semantics:
// objects created during the iteration are not visited. Iterations
// with a by clause are always snapshot.
func (q *Query) Snapshot() *Query {
	q.snapshot = true
	return q
}

// NoIndex forces a full extent scan even when an index could serve the
// suchthat clause (for ablation benchmarks).
func (q *Query) NoIndex() *Query {
	q.noIndex = true
	return q
}

// Parallel partitions the scan across n worker goroutines (n <= 0 means
// GOMAXPROCS). Parallel implies Snapshot: objects created during the
// loop are not visited, because fixpoint semantics need a serial view
// of the growing write set. Ordered runs (By/ByKey) stay serial too —
// their output order must be deterministic. The body runs concurrently,
// so it must be safe for concurrent invocation; reading through the
// transaction (Deref, field access) is safe, mutating it (Update, PNew,
// Delete) is not. Collect and Count synchronize internally. Iteration
// order across workers is unspecified.
func (q *Query) Parallel(n int) *Query {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q.workers = n
	q.snapshot = true
	return q
}

// Plan returns a description of the access path chosen by the last run
// ("" before any run).
func (q *Query) Plan() string { return q.plan }

// Do runs the loop. fn returning false stops the iteration early.
//
// Semantics, per the paper: objects pnew'ed into the iterated extents
// while the loop runs are themselves visited (section 3.2, fixpoint
// queries) unless Snapshot or an ordering clause is in effect. Objects
// deleted in the surrounding transaction are never visited.
func (q *Query) Do(fn func(it Item) (bool, error)) error {
	return q.run(func(it Item, _ []byte) (bool, error) { return fn(it) })
}

// DoImages is Do for a body that ships rows on instead of reading them
// (the wire server's forall). A row that an extent scan read from its
// stored image, and whose image passed the suchthat test, comes
// undecoded: fn(it, image) with it.Obj nil and image the stored
// encoding, as object.Decode reads it. The image lives in an arena the
// query reuses for every batch, so it is valid only until fn returns.
// Every other row (from the write set, a fixpoint delta or an index
// range, or tested by a predicate only Eval can test) comes as
// fn(it, nil) with it.Obj set. Ordered and Parallel loops decode every
// row.
func (q *Query) DoImages(fn func(it Item, image []byte) (bool, error)) error {
	q.images = q.byField == "" && q.byKey == nil && q.workers <= 1
	defer func() { q.images = false }()
	return q.run(fn)
}

// run is Do over a rowFn.
func (q *Query) run(fn rowFn) error {
	if !q.internal {
		q.met().Foralls.Inc()
	}
	if q.byField != "" || q.byKey != nil {
		return q.runOrdered(fn)
	}
	if q.snapshot {
		if q.workers > 1 {
			return q.runParallel(fn)
		}
		return q.gatherEach(fn)
	}
	return q.runFixpoint(fn)
}

// Collect runs the loop and returns all bindings. With Parallel the
// result order is unspecified.
func (q *Query) Collect() ([]Item, error) {
	var mu sync.Mutex
	var out []Item
	err := q.Do(func(it Item) (bool, error) {
		mu.Lock()
		out = append(out, it)
		mu.Unlock()
		return true, nil
	})
	return out, err
}

// Count runs the loop and counts bindings. Unless the loop is ordered,
// an extent scan decodes only the objects an Fn predicate needs: the
// bindings it counts carry no object.
func (q *Query) Count() (int, error) {
	var n atomic.Int64
	q.bare = q.byField == "" && q.byKey == nil
	defer func() { q.bare = false }()
	err := q.Do(func(Item) (bool, error) {
		n.Add(1)
		return true, nil
	})
	return int(n.Load()), err
}

// classes returns the extents to visit.
func (q *Query) classes() []*core.Class {
	if q.subtypes {
		return q.tx.Schema().Hierarchy(q.class)
	}
	return []*core.Class{q.class}
}

// classMatch reports whether an object of class c binds this loop
// variable.
func (q *Query) classMatch(c *core.Class) bool {
	if q.subtypes {
		return c.IsA(q.class)
	}
	return c == q.class
}

// eval applies the full suchthat predicate.
func (q *Query) eval(it Item) (bool, error) {
	if q.pred == nil {
		return true, nil
	}
	return q.pred.Eval(q.tx, it)
}

// scanBatch bounds how many objects one extent-scan step locks and
// resolves. The object manager's read lock is held while a batch is
// resolved, so the size also bounds how long a committing writer waits
// behind a scan.
const scanBatch = 64

// match applies the loop's suchthat clause to a fetched item and counts
// the yield.
func (q *Query) match(it Item) (bool, error) {
	ok, err := q.eval(it)
	if ok && err == nil {
		q.met().RowsYielded.Inc()
	}
	return ok, err
}

// visitWriteSet visits the transaction's write set in OID order (the
// first pass of every unordered loop: those objects live in tx-local
// state and are authoritative over any index entry or extent
// membership) and returns it as the skip set of the later passes.
func (q *Query) visitWriteSet(fn rowFn) (skip map[core.OID]bool, cont bool, err error) {
	writeSet := q.tx.WriteSet()
	if len(writeSet) == 0 {
		return nil, true, nil
	}
	skip = make(map[core.OID]bool, len(writeSet))
	for _, oid := range writeSet {
		skip[oid] = true
	}
	for _, oid := range writeSet {
		if cont, err := q.visitOID(oid, fn); err != nil || !cont {
			return skip, false, err
		}
	}
	return skip, true, nil
}

// visitOID is the point-lookup path (write set, index ranges, fixpoint
// deltas): fetch one object and yield it if it binds and matches.
func (q *Query) visitOID(oid core.OID, fn rowFn) (bool, error) {
	it, ok, err := q.fetch(oid)
	if err != nil || !ok {
		return err == nil, err
	}
	if ok, err := q.match(it); err != nil || !ok {
		return err == nil, err
	}
	return fn(it, nil)
}

// planIndex picks the access path, records it in the plan string and
// the plan counters, and returns the index bounds when an index serves
// the suchthat clause (field == "" means an extent scan).
func (q *Query) planIndex() (lo, hi core.Value, field string) {
	lo, hi, field, residualOnly := q.indexPath()
	if field != "" {
		q.plan = fmt.Sprintf("index-scan(%s.%s in [%s, %s])", q.class.Name, field, lo, hi)
		if residualOnly {
			q.plan += " + residual"
		}
		if !q.internal {
			q.met().PlanIndexRange.Inc()
		}
		return lo, hi, field
	}
	q.plan = fmt.Sprintf("extent-scan(%s%s)", q.class.Name, starIf(q.subtypes))
	if !q.internal {
		q.met().PlanExtentScan.Inc()
	}
	return lo, hi, ""
}

// gatherEach streams the matching items once (snapshot semantics),
// choosing an index access path when possible. No item buffering:
// extents of distinct classes are disjoint and index entries are
// unique per object, so no dedup set is needed beyond the write set.
func (q *Query) gatherEach(fn rowFn) error {
	skip, cont, err := q.visitWriteSet(fn)
	if err != nil || !cont {
		return err
	}
	if lo, hi, field := q.planIndex(); field != "" {
		return q.tx.Manager().IndexScan(q.class, field, lo, hi, func(oid core.OID) (bool, error) {
			if skip[oid] {
				return true, nil // already handled from the write set
			}
			return q.visitOID(oid, fn)
		})
	}
	r := q.tx.NewBatchReader()
	var leaf []core.OID
	for _, ext := range q.extents() {
		// Extent boundary: a scan over a class hierarchy re-checks the
		// transaction context between extents.
		if err := q.tx.Err(); err != nil {
			return err
		}
		for {
			if leaf, err = ext.Next(leaf[:0]); err != nil || len(leaf) == 0 {
				break
			}
			if cont, err = q.scanLeaf(r, leaf, skip, fn); err != nil || !cont {
				return err
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// extents starts the reads of the iterated extents, all bounded at the
// same moment: objects created after the loop starts are not visited
// (DESIGN.md, "Extent scans").
func (q *Query) extents() []*object.Extent {
	classes := q.classes()
	exts := make([]*object.Extent, len(classes))
	for i, c := range classes {
		exts[i] = q.tx.Manager().Extent(c)
	}
	return exts
}

// scanLeaf visits the objects of one cluster leaf in OID order,
// scanBatch at a time. Each batch is locked and read as a whole
// (txn.BatchReader.Visit). While a stored image is pinned, its class
// and, when onImage allows, the suchthat clause are tested on it; a row
// is decoded only if it passes and the body reads objects (not for
// Count), into blocks shared by the leaf's objects
// (object.BlockDecoder). Under DoImages a passed image is copied into
// the query's arena instead (reset per batch) and yielded undecoded.
// Rows from the write set, and every row under a predicate only Eval
// can test, are copied or decoded and tested after the visit. The loop
// body then runs on the batch in OID order, never with the object
// manager's lock held. OIDs in skip (visited from the write set) are
// left out; the leaf slice is filtered in place. It reports whether
// the loop goes on.
func (q *Query) scanLeaf(r *txn.BatchReader, leaf []core.OID, skip map[core.OID]bool, fn rowFn) (bool, error) {
	if len(skip) > 0 {
		leaf = slices.DeleteFunc(leaf, func(oid core.OID) bool { return skip[oid] })
	}
	schema := q.tx.Schema()
	var img imagePred
	if onImage(q.pred) {
		img = q.pred.(imagePred)
	}
	// A row's state after the visit: not visited (deleted, or another
	// class), to be tested with Eval, passed, or failed with err.
	const (
		rowSkip = iota
		rowEval
		rowPass
		rowErr
	)
	type row struct {
		state  int
		obj    *core.Object
		err    error
		lo, hi int // a passed row's image in q.arena (DoImages)
	}
	var rowBuf [scanBatch]row
	var dec object.BlockDecoder
	for len(leaf) > 0 {
		batch := leaf[:min(len(leaf), scanBatch)]
		leaf = leaf[len(batch):]
		// Batch boundary: the scan's cancellation point.
		if err := q.tx.Err(); err != nil {
			return false, err
		}
		rows := rowBuf[:len(batch)]
		clear(rows)
		if q.images { // never set on a Parallel loop, whose workers share q
			q.arena = q.arena[:0]
		}
		decoded := 0
		err := r.Visit(batch, func(i int, obj *core.Object, image []byte) error {
			if obj != nil {
				if q.classMatch(obj.Class()) {
					rows[i] = row{state: rowEval, obj: obj.Copy()}
				}
				return nil
			}
			sr, err := object.NewSlotReader(schema, image)
			if err != nil || !q.classMatch(sr.Class) {
				return err
			}
			state := rowPass
			switch {
			case img != nil:
				ok, err := img.evalImage(sr)
				if err != nil {
					rows[i] = row{state: rowErr, err: err}
				}
				if err != nil || !ok {
					return nil
				}
			case q.pred != nil:
				state = rowEval
			}
			rows[i].state = state
			if state == rowPass && q.images {
				// Copied while the page is pinned; yielded undecoded.
				rows[i].lo = len(q.arena)
				q.arena = append(q.arena, image...)
				rows[i].hi = len(q.arena)
				return nil
			}
			if state == rowPass && q.bare {
				return nil
			}
			decoded++
			rows[i].obj, err = dec.Decode(schema, image)
			return err
		})
		if err != nil {
			return false, err
		}
		q.met().RowsScanned.Add(uint64(len(batch)))
		q.met().RowsDecoded.Add(uint64(decoded))
		for i, rw := range rows {
			it := Item{OID: batch[i], Obj: rw.obj}
			var image []byte
			if rw.hi > rw.lo {
				image = q.arena[rw.lo:rw.hi:rw.hi]
			}
			switch rw.state {
			case rowSkip:
				continue
			case rowErr:
				return false, rw.err
			case rowEval:
				ok, err := q.match(it)
				if err != nil {
					return false, err
				}
				if !ok {
					continue
				}
			case rowPass:
				q.met().RowsYielded.Inc()
			}
			if cont, err := fn(it, image); err != nil || !cont {
				return false, err
			}
		}
	}
	return true, nil
}

// runParallel is the snapshot loop partitioned across q.workers
// goroutines. The transaction write set is visited first, serially
// (those objects live in tx-local state and are authoritative); the
// committed candidates are then claimed in chunks from a shared source:
// one cluster leaf per chunk on an extent scan, a slice of the range on
// an index scan. A body returning false or an error raises a stop flag
// that every worker polls per object, and the error of the
// lowest-numbered chunk wins, so the reported error does not depend on
// goroutine scheduling.
func (q *Query) runParallel(fn rowFn) error {
	skip, cont, err := q.visitWriteSet(fn)
	if err != nil || !cont {
		return err
	}
	lo, hi, field := q.planIndex()
	q.plan += fmt.Sprintf(" parallel(%d)", q.workers)
	if !q.internal {
		q.met().ParallelForalls.Inc()
	}

	// next hands out the chunks; the claim lock serializes it.
	var next func(buf []core.OID) ([]core.OID, error)
	if field != "" {
		oids, err := q.tx.Manager().IndexOIDs(q.class, field, lo, hi)
		if err != nil {
			return err
		}
		oids = slices.DeleteFunc(oids, func(oid core.OID) bool { return skip[oid] })
		// ~8 chunks per worker balances skew against claim traffic.
		chunk := max(1, len(oids)/(q.workers*8))
		next = func([]core.OID) ([]core.OID, error) {
			part := oids[:min(chunk, len(oids))]
			oids = oids[len(part):]
			return part, nil
		}
	} else {
		exts := q.extents()
		next = func(buf []core.OID) ([]core.OID, error) {
			for len(exts) > 0 {
				leaf, err := exts[0].Next(buf[:0])
				if err != nil || len(leaf) > 0 {
					return leaf, err
				}
				exts = exts[1:]
			}
			return nil, nil
		}
	}

	var (
		claimMu  sync.Mutex
		claimed  int
		firstErr error
		errChunk = -1
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	fail := func(ci int, err error) {
		claimMu.Lock()
		if errChunk < 0 || ci < errChunk {
			firstErr, errChunk = err, ci
		}
		claimMu.Unlock()
		stop.Store(true)
	}
	visit := func(it Item, image []byte) (bool, error) {
		if stop.Load() {
			return false, nil
		}
		return fn(it, image)
	}
	for w := 0; w < q.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r *txn.BatchReader
			var buf []core.OID
			for !stop.Load() {
				claimMu.Lock()
				ci := claimed
				claimed++
				// Chunk boundary: each worker re-checks the transaction
				// context before claiming more work, so a Parallel(n)
				// scan stops within one chunk of cancellation.
				err := q.tx.Err()
				var chunk []core.OID
				if err == nil {
					chunk, err = next(buf)
				}
				claimMu.Unlock()
				if err != nil {
					fail(ci, err)
					return
				}
				if len(chunk) == 0 {
					return
				}
				cont := true
				if field != "" {
					for _, oid := range chunk {
						if cont, err = q.visitOID(oid, visit); err != nil || !cont {
							break
						}
					}
				} else {
					buf = chunk
					if r == nil {
						r = q.tx.NewBatchReader()
					}
					cont, err = q.scanLeaf(r, chunk, skip, visit)
				}
				if err != nil {
					fail(ci, err)
					return
				}
				if !cont {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// gather collects the matching items (ordered runs need them all).
func (q *Query) gather() ([]Item, error) {
	var out []Item
	err := q.gatherEach(func(it Item, _ []byte) (bool, error) {
		out = append(out, it)
		return true, nil
	})
	return out, err
}

func starIf(b bool) string {
	if b {
		return "*"
	}
	return ""
}

// fetch loads the tx-visible state of oid and reports whether it binds
// the loop variable (exists, not deleted, class matches). It is the
// per-row cancellation point of the point-lookup paths: an expired or
// canceled transaction context stops the loop with a typed error even
// when the row would have been served from tx-local state without a
// lock wait. (Extent scans check once per batch, in scanLeaf.)
func (q *Query) fetch(oid core.OID) (Item, bool, error) {
	if err := q.tx.Err(); err != nil {
		return Item{}, false, err
	}
	q.met().RowsScanned.Inc()
	if q.tx.IsDeleted(oid) {
		return Item{}, false, nil
	}
	o, err := q.tx.Deref(oid)
	if err != nil {
		// Deleted concurrently between scan and deref under our lock
		// protocol cannot happen (the scan reflects committed state and
		// deletes need X locks); a missing object here is a real error.
		return Item{}, false, err
	}
	if !q.classMatch(o.Class()) {
		return Item{}, false, nil
	}
	return Item{OID: oid, Obj: o}, true, nil
}

// indexPath inspects the suchthat predicate for an indexable conjunct.
// It returns inclusive bounds, the field name ("" when no index path
// applies), and whether the residual check subsumes the bounds.
func (q *Query) indexPath() (lo, hi core.Value, field string, residual bool) {
	if q.noIndex || q.pred == nil {
		return core.Null, core.Null, "", false
	}
	var candidates []FieldPred
	switch p := q.pred.(type) {
	case FieldPred:
		candidates = append(candidates, p)
	case AndPred:
		for _, sub := range p {
			if fp, ok := sub.(FieldPred); ok {
				candidates = append(candidates, fp)
			}
		}
	}
	for _, fp := range candidates {
		l, h, res, ok := fp.indexBounds()
		if !ok {
			continue
		}
		if !q.tx.Manager().HasIndex(q.class, fp.Name) {
			continue
		}
		// An index on a base class covers subclass extents, so the
		// index path is valid for both C and C* loops; for C loops the
		// class filter in fetch() prunes subclass objects.
		return l, h, fp.Name, res
	}
	return core.Null, core.Null, "", false
}

// runOrdered gathers, sorts by the key, and visits.
func (q *Query) runOrdered(fn rowFn) error {
	items, err := q.gather()
	if err != nil {
		return err
	}
	key := q.byKey
	if key == nil {
		field := q.byField
		key = func(it Item) (core.Value, error) { return it.Obj.Get(field) }
	}
	type keyed struct {
		it Item
		k  core.Value
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		k, err := key(it)
		if err != nil {
			return err
		}
		ks[i] = keyed{it: it, k: k}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		c := ks[i].k.Compare(ks[j].k)
		if q.desc {
			return c > 0
		}
		return c < 0
	})
	for _, e := range ks {
		cont, err := fn(e.it, nil)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// runFixpoint visits the snapshot first and then keeps visiting objects
// created into the iterated extents during the loop, until no new
// matching objects appear. This realizes the paper's recursive-query
// semantics for cluster loops.
//
// Only the write set can grow during the loop, so a loop that leaves
// it empty is done after the first pass; the first pass just notes the
// OIDs it yielded, and the visited set is built from them only when a
// delta pass has something to compare against.
func (q *Query) runFixpoint(fn rowFn) error {
	var yielded []core.OID
	stopped := false
	err := q.gatherEach(func(it Item, image []byte) (bool, error) {
		yielded = append(yielded, it.OID)
		cont, err := fn(it, image)
		if !cont {
			stopped = true
		}
		return cont, err
	})
	if err != nil || stopped {
		return err
	}
	writeSet := q.tx.WriteSet()
	if len(writeSet) == 0 {
		return nil
	}
	visited := make(map[core.OID]bool, len(yielded))
	for _, oid := range yielded {
		visited[oid] = true
	}
	for {
		// Newly created objects land in the transaction write set; a
		// cheap delta pass over it suffices.
		var delta []Item
		for _, oid := range writeSet {
			if visited[oid] {
				continue
			}
			it, ok, err := q.fetch(oid)
			if err != nil {
				return err
			}
			if !ok {
				visited[oid] = true // deleted or class mismatch: never visit
				continue
			}
			match, err := q.match(it)
			if err != nil {
				return err
			}
			if match {
				delta = append(delta, it)
			} else {
				visited[oid] = true
			}
		}
		if len(delta) == 0 {
			return nil
		}
		q.met().FixpointRounds.Inc()
		for _, it := range delta {
			visited[it.OID] = true
			cont, err := fn(it, nil)
			if err != nil || !cont {
				return err
			}
		}
		writeSet = q.tx.WriteSet()
	}
}

// ErrStopped can be returned by callbacks that want to distinguish
// early termination from errors (convenience; Do treats a false return
// the same way).
var ErrStopped = errors.New("query: stopped")
