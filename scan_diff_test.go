package ode

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The extent scan behind Forall is checked against a reference written
// here from point lookups: Manager.ClusterOIDs for membership and
// Tx.Deref per OID, in the same transaction right after the loop, so
// both see the objects under the same S locks. Seeded histories run
// against three concurrent writers (an inserter, an updater and a
// deleter) and cover C and C* loops, the scanning transaction's own
// updates, deletes and creates, fixpoint bodies that create objects or
// make one start to match, and early stops; Count, which
// decodes no object, is checked against the reference's length.

type diffWorld struct {
	db         *DB
	base, sub  *Class
	mu         sync.Mutex
	live       []OID         // committed objects, for the writers to pick from
	insertedAt map[OID]int64 // inserter's objects -> commit sequence
	seq        atomic.Int64  // advanced after each inserter commit
}

func openDiffWorld(t *testing.T, seed int64) *diffWorld {
	t.Helper()
	schema := NewSchema()
	base := NewClass("part").Field("name", TString).Field("n", TInt).Register(schema)
	sub := NewClass("widget", base).Field("color", TString).Register(schema)
	db, err := Open(filepath.Join(t.TempDir(), "diff.odb"), schema, &Options{NoSync: true, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, c := range []*Class{base, sub} {
		if err := db.CreateCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	w := &diffWorld{db: db, base: base, sub: sub, insertedAt: map[OID]int64{}}
	rng := rand.New(rand.NewSource(seed))
	for start := 0; start < 1200; start += 200 {
		var made []OID
		err := db.RunTx(func(tx *Tx) error {
			made = made[:0]
			for i := start; i < start+200; i++ {
				oid, err := tx.PNew(w.obj(rng, i))
				if err != nil {
					return err
				}
				made = append(made, oid)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w.live = append(w.live, made...)
	}
	return w
}

func (w *diffWorld) pick(rng *rand.Rand) *Class {
	if rng.Intn(3) == 0 {
		return w.sub
	}
	return w.base
}

// obj makes a fresh object of a random class and returns both.
func (w *diffWorld) obj(rng *rand.Rand, i int) (*Class, *Object) {
	c := w.pick(rng)
	o := NewObject(c)
	o.MustSet("name", Str(fmt.Sprintf("p%d", i)))
	o.MustSet("n", Int(int64(rng.Intn(100))))
	return c, o
}

func (w *diffWorld) randomLive(rng *rand.Rand) (OID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.live) == 0 {
		return NilOID, false
	}
	return w.live[rng.Intn(len(w.live))], true
}

// writers runs the three concurrent writers until stop closes.
func (w *diffWorld) writers(t *testing.T, seed int64, stop chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	run := func(role int64, step func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + role))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(rng); err != nil && !errors.Is(err, ErrNoObject) {
					t.Errorf("writer %d: %v", role, err)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	run(1, func(rng *rand.Rand) error { // inserter
		var oid OID
		err := w.db.RunTx(func(tx *Tx) error {
			var err error
			if oid, err = tx.PNew(w.obj(rng, 1_000_000+rng.Intn(1000))); err != nil {
				return err
			}
			// Mark the object before its commit can make it visible: the
			// commit sequence is only known after RunTx returns, and a
			// scan overlapping the commit may or may not reach it.
			w.mu.Lock()
			w.insertedAt[oid] = math.MaxInt64
			w.mu.Unlock()
			return nil
		})
		if err == nil {
			w.mu.Lock()
			w.live = append(w.live, oid)
			w.insertedAt[oid] = w.seq.Add(1)
			w.mu.Unlock()
		}
		return err
	})
	run(2, func(rng *rand.Rand) error { // updater
		oid, ok := w.randomLive(rng)
		if !ok {
			return nil
		}
		return w.db.RunTx(func(tx *Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("n", Int(int64(rng.Intn(100))))
			return tx.Update(oid, o)
		})
	})
	run(3, func(rng *rand.Rand) error { // deleter
		oid, ok := w.randomLive(rng)
		if !ok || rng.Intn(4) != 0 {
			return nil
		}
		err := w.db.RunTx(func(tx *Tx) error { return tx.PDelete(oid) })
		if err == nil {
			w.mu.Lock()
			if i := slices.Index(w.live, oid); i >= 0 {
				w.live = slices.Delete(w.live, i, i+1)
			}
			w.mu.Unlock()
		}
		return err
	})
	return &wg
}

type diffRow struct {
	oid   OID
	class *Class
	name  string
	n     int64
}

func rowOf(it Item) diffRow {
	return diffRow{oid: it.OID, class: it.Obj.Class(), name: it.Obj.MustGet("name").Str(), n: it.Obj.MustGet("n").Int()}
}

// reference is the loop's expected output from point lookups: the
// write set as it stood before the loop (ws0) first, then each extent
// in OID order, then the objects the loop itself created.
func (w *diffWorld) reference(tx *Tx, ws0 []OID, c *Class, star bool, min int64) ([]diffRow, error) {
	classes := []*Class{c}
	if star {
		classes = tx.Schema().Hierarchy(c)
	}
	var out []diffRow
	seen := map[OID]bool{}
	add := func(oid OID) error {
		if seen[oid] || tx.IsDeleted(oid) {
			return nil
		}
		seen[oid] = true
		o, err := tx.Deref(oid)
		if errors.Is(err, ErrNoObject) {
			// Deleted by a writer between ClusterOIDs and the lock: it
			// does not exist once locked.
			return nil
		}
		if err != nil {
			return err
		}
		if slices.Contains(classes, o.Class()) && o.MustGet("n").Int() >= min {
			out = append(out, rowOf(Item{OID: oid, Obj: o}))
		}
		return nil
	}
	for _, oid := range ws0 {
		if err := add(oid); err != nil {
			return nil, err
		}
	}
	for _, cl := range classes {
		oids, err := tx.Manager().ClusterOIDs(cl)
		if err != nil {
			return nil, err
		}
		for _, oid := range oids {
			if err := add(oid); err != nil {
				return nil, err
			}
		}
	}
	for _, oid := range tx.WriteSet() {
		if tx.Created(oid) {
			if err := add(oid); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func TestForallMatchesPointLookups(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { diffScans(t, seed) })
	}
}

func diffScans(t *testing.T, seed int64) {
	w := openDiffWorld(t, seed)
	stop := make(chan struct{})
	wg := w.writers(t, seed, stop)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	rng := rand.New(rand.NewSource(seed))
	checked, counted := 0, 0
	for round := 0; round < 36; round++ {
		mode := round % nModes
		c := w.pick(rng)
		if rng.Intn(2) == 0 {
			c = w.base
		}
		star := rng.Intn(2) == 0
		min := int64(rng.Intn(3) * 30)
		err := w.db.RunTx(func(tx *Tx) error {
			// The scanning transaction's own writes come first.
			for i := 0; i < 3; i++ {
				oid, ok := w.randomLive(rng)
				if !ok {
					break
				}
				o, err := tx.Deref(oid)
				if errors.Is(err, ErrNoObject) {
					continue
				}
				if err != nil {
					return err
				}
				switch i {
				case 0:
					o.MustSet("n", Int(int64(rng.Intn(100))))
					err = tx.Update(oid, o)
				case 1:
					err = tx.PDelete(oid)
				case 2:
					_, err = tx.PNew(w.obj(rng, 2_000_000+round))
				}
				if err != nil {
					return err
				}
			}
			if err := w.checkLoop(tx, rng, mode, c, star, min); err != nil {
				return err
			}
			if mode == modePlain || mode == modeSnapshot {
				if err := w.checkCount(tx, mode, c, star, min); err != nil {
					return err
				}
				counted++
			}
			checked++
			return nil
		})
		if err != nil && !IsRetryable(err) {
			t.Fatalf("round %d: %v", round, err)
		}
		if t.Failed() {
			return
		}
	}
	if checked < 30 || counted < 12 || w.seq.Load() == 0 {
		t.Fatalf("%d loops and %d counts checked, %d concurrent inserts: too few to mean anything", checked, counted, w.seq.Load())
	}
}

// Loop shapes of the differential scan test.
const (
	modePlain    = iota // fixpoint semantics, no body writes
	modeSnapshot        // Snapshot()
	modeStop            // the body stops the loop early
	modeCreate          // a fixpoint body creates matching objects
	modeStart           // a fixpoint body makes an object start to match
	nModes
)

// checkLoop runs one loop and compares it with the reference. A
// mismatch comes back as an error, so the transaction aborts and the
// writers blocked on its locks can finish.
func (w *diffWorld) checkLoop(tx *Tx, rng *rand.Rand, mode int, c *Class, star bool, min int64) error {
	q := Forall(tx, c).SuchThat(Field("n").Ge(Int(min)))
	if star {
		q = q.Subtypes()
	}
	if mode == modeSnapshot {
		q = q.Snapshot()
	}
	ws0 := tx.WriteSet()
	// The snapshot body writes the last object of c's extent before the
	// scan reaches it: the loop must yield the updated image, or skip
	// the object when the write deletes it or makes it stop matching.
	var ahead OID
	if oids, err := tx.Manager().ClusterOIDs(c); err != nil {
		return err
	} else if len(oids) > 0 {
		ahead = oids[len(oids)-1]
	}
	before := w.seq.Load()
	limit := 1 + rng.Intn(40)
	var got []diffRow
	var created, started []OID
	err := q.Do(func(it Item) (bool, error) {
		got = append(got, rowOf(it))
		n := len(got)
		switch {
		case mode == modeStop && n == limit:
			return false, nil
		case mode == modeSnapshot && n == 1 && ahead != NilOID && it.OID != ahead &&
			(slices.Contains(ws0, it.OID) || (it.Obj.Class() == c && it.OID < ahead)):
			o, err := tx.Deref(ahead)
			if errors.Is(err, ErrNoObject) {
				return true, nil
			}
			if err != nil {
				return false, err
			}
			switch {
			case ahead%3 == 0:
				return true, tx.PDelete(ahead)
			case ahead%3 == 1 && min > 0:
				o.MustSet("n", Int(min-1))
			default:
				o.MustSet("n", Int(99))
			}
			return true, tx.Update(ahead, o)
		case mode == modeCreate && n <= 3:
			o := NewObject(it.Obj.Class())
			o.MustSet("name", Str(fmt.Sprintf("made-by-%d", it.OID)))
			o.MustSet("n", Int(min+1))
			oid, err := tx.PNew(it.Obj.Class(), o)
			created = append(created, oid)
			return err == nil, err
		case mode == modeStart && n == 1 && min > 0:
			// Raise an object that did not match to the threshold.
			oids, err := tx.Manager().ClusterOIDs(it.Obj.Class())
			if err != nil {
				return false, err
			}
			for _, oid := range oids {
				o, err := tx.Deref(oid)
				if errors.Is(err, ErrNoObject) {
					continue
				}
				if err != nil {
					return false, err
				}
				if o.MustGet("n").Int() < min {
					o.MustSet("n", Int(min))
					started = append(started, oid)
					return true, tx.Update(oid, o)
				}
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	ref, err := w.reference(tx, ws0, c, star, min)
	if err != nil {
		return err
	}
	yielded := map[OID]diffRow{}
	for _, r := range got {
		if _, dup := yielded[r.oid]; dup {
			return fmt.Errorf("mode %d: @%d yielded twice", mode, r.oid)
		}
		yielded[r.oid] = r
	}
	// Objects the inserter committed after the loop began may or may
	// not have been reached: drop those the loop did not yield.
	w.mu.Lock()
	ref = slices.DeleteFunc(ref, func(r diffRow) bool {
		_, seen := yielded[r.oid]
		at, inserted := w.insertedAt[r.oid]
		return !seen && inserted && at > before
	})
	w.mu.Unlock()
	for _, oid := range append(created, started...) {
		if _, ok := yielded[oid]; !ok {
			return fmt.Errorf("mode %d: fixpoint loop never visited @%d", mode, oid)
		}
	}
	switch mode {
	case modeStop:
		if len(got) > len(ref) {
			return fmt.Errorf("mode %d: early stop yielded %d rows, reference has %d", mode, len(got), len(ref))
		}
		ref = ref[:len(got)]
		fallthrough
	case modePlain, modeSnapshot:
		// Serial loops whose bodies do not rewrite what they already
		// saw yield exactly the reference, in its order.
		if len(got) != len(ref) {
			return fmt.Errorf("mode %d (C%s, n >= %d): %d rows, reference %d", mode, starIf(star), min, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				return fmt.Errorf("mode %d row %d: got %+v, reference %+v", mode, i, got[i], ref[i])
			}
		}
	default:
		// Fixpoint bodies rewrite objects after they were yielded.
		if len(got) != len(ref) {
			return fmt.Errorf("mode %d (C%s, n >= %d): %d rows, reference %d", mode, starIf(star), min, len(got), len(ref))
		}
		for _, r := range ref {
			g, ok := yielded[r.oid]
			if !ok {
				return fmt.Errorf("mode %d: reference row %+v not yielded", mode, r)
			}
			if !tx.Created(r.oid) && !slices.Contains(started, r.oid) && g != r {
				return fmt.Errorf("mode %d: got %+v, reference %+v", mode, g, r)
			}
		}
	}
	return nil
}

// checkCount runs the loop's Count form, which tests stored images and
// decodes nothing, and compares it with the reference's length. Objects
// the inserter committed after the count began may or may not be
// counted, so they widen the accepted range.
func (w *diffWorld) checkCount(tx *Tx, mode int, c *Class, star bool, min int64) error {
	q := Forall(tx, c).SuchThat(Field("n").Ge(Int(min)))
	if star {
		q = q.Subtypes()
	}
	if mode == modeSnapshot {
		q = q.Snapshot()
	}
	ws0 := tx.WriteSet()
	before := w.seq.Load()
	got, err := q.Count()
	if err != nil {
		return err
	}
	ref, err := w.reference(tx, ws0, c, star, min)
	if err != nil {
		return err
	}
	late := 0
	w.mu.Lock()
	for _, r := range ref {
		if at, inserted := w.insertedAt[r.oid]; inserted && at > before {
			late++
		}
	}
	w.mu.Unlock()
	if got < len(ref)-late || got > len(ref) {
		return fmt.Errorf("mode %d count (C%s, n >= %d) = %d, reference %d (%d inserted during the count)", mode, starIf(star), min, got, len(ref), late)
	}
	return nil
}

func starIf(b bool) string {
	if b {
		return "*"
	}
	return ""
}
