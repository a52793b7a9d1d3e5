package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ode"
)

// OnOpen, when set, is called with every database NewWorld opens.
// ode-bench uses it to point its expvar metrics exposition at the
// world currently under measurement.
var OnOpen func(*ode.DB)

// World is a database preloaded with the standard schema used across
// experiments.
type World struct {
	DB    *ode.DB
	Dir   string
	Stock *ode.Class // stockitem: name, price, qty, threshold
	// person hierarchy (paper §3.1)
	Person  *ode.Class
	Student *ode.Class
	Faculty *ode.Class
	// part DAG (paper §3.2)
	Part *ode.Class
	// linked list for the pointer-navigation baseline (paper §3 claim)
	Cell *ode.Class
	// employee/department join classes
	Emp  *ode.Class
	Dept *ode.Class
}

// Schema builds the experiment schema. It must be called afresh for
// every Open of the same file.
func Schema() (*ode.Schema, *World) {
	s := ode.NewSchema()
	w := &World{}
	w.Stock = ode.NewClass("stockitem").
		Field("name", ode.TString).
		Field("price", ode.TFloat).
		Field("qty", ode.TInt).
		Field("threshold", ode.TInt).
		Trigger(&ode.TriggerDef{
			Name:      "restock",
			Perpetual: true,
			Params:    []ode.Param{{Name: "lot", Type: ode.TInt}},
			Src:       "qty < threshold ==> qty += lot",
			Cond: func(_ ode.Store, self *ode.Object, _ []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < self.MustGet("threshold").Int(), nil
			},
			Action: func(st ode.Store, self *ode.Object, oid ode.OID, args []ode.Value) error {
				self.MustSet("qty", ode.Int(self.MustGet("qty").Int()+args[0].Int()))
				return st.Update(oid, self)
			},
		}).
		Register(s)
	w.Person = ode.NewClass("person").
		Field("name", ode.TString).
		Field("income", ode.TInt).
		Field("age", ode.TInt).
		Register(s)
	w.Student = ode.NewClass("student", w.Person).
		Field("school", ode.TString).
		Register(s)
	w.Faculty = ode.NewClass("faculty", w.Person).
		Field("dept", ode.TString).
		Register(s)
	w.Part = ode.NewClass("part").
		Field("name", ode.TString).
		Field("subparts", ode.SetOfType(ode.RefTo("part"))).
		Register(s)
	w.Cell = ode.NewClass("cell").
		Field("value", ode.TInt).
		Field("next", ode.RefTo("cell")).
		Register(s)
	w.Emp = ode.NewClass("emp").
		Field("name", ode.TString).
		Field("deptno", ode.TInt).
		Field("salary", ode.TInt).
		Register(s)
	w.Dept = ode.NewClass("dept").
		Field("deptno", ode.TInt).
		Field("dname", ode.TString).
		Register(s)
	return s, w
}

// NewWorld opens a fresh database in a temp directory with all clusters
// created. Callers must Close it.
func NewWorld(opts *ode.Options) (*World, error) {
	dir, err := os.MkdirTemp("", "ode-bench")
	if err != nil {
		return nil, err
	}
	s, w := Schema()
	if opts == nil {
		opts = &ode.Options{NoSync: true} // benchmark default: no fsync
	}
	db, err := ode.Open(filepath.Join(dir, "bench.odb"), s, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.DB = db
	w.Dir = dir
	if OnOpen != nil {
		OnOpen(db)
	}
	for _, c := range []*ode.Class{w.Stock, w.Person, w.Student, w.Faculty, w.Part, w.Cell, w.Emp, w.Dept} {
		if err := db.CreateCluster(c); err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
	}
	return w, nil
}

// Close tears the world down.
func (w *World) Close() {
	if w.DB != nil {
		w.DB.Close()
	}
	if w.Dir != "" {
		os.RemoveAll(w.Dir)
	}
}

// LoadStock inserts n stockitems with qty = i and price i/100, batching
// commits.
func (w *World) LoadStock(n int) ([]ode.OID, error) {
	return batchInsert(NewEmbeddedStore(w), n, 1000, func(tx Tx, i int) (ode.OID, error) {
		o := ode.NewObject(w.Stock)
		o.MustSet("name", ode.Str(fmt.Sprintf("item-%07d", i)))
		o.MustSet("price", ode.Float(float64(i)/100))
		o.MustSet("qty", ode.Int(int64(i)))
		o.MustSet("threshold", ode.Int(100))
		return tx.PNew(w.Stock, o)
	})
}

// LoadPersons inserts persons/students/faculty in ratio 2:1:1 with
// income = i.
func (w *World) LoadPersons(n int) ([]ode.OID, error) {
	return batchInsert(NewEmbeddedStore(w), n, 1000, func(tx Tx, i int) (ode.OID, error) {
		var c *ode.Class
		switch i % 4 {
		case 0, 1:
			c = w.Person
		case 2:
			c = w.Student
		default:
			c = w.Faculty
		}
		o := ode.NewObject(c)
		o.MustSet("name", ode.Str(fmt.Sprintf("p-%07d", i)))
		o.MustSet("income", ode.Int(int64(i)))
		o.MustSet("age", ode.Int(int64(20+i%60)))
		switch c {
		case w.Student:
			o.MustSet("school", ode.Str("eng"))
		case w.Faculty:
			o.MustSet("dept", ode.Str("cs"))
		}
		return tx.PNew(c, o)
	})
}

// LoadChain builds a linked list of n cells (value = position) in one
// transaction and returns the head: the CODASYL-style structure the
// paper's iterators replace.
func (w *World) LoadChain(n int) (ode.OID, error) { return loadChain(NewEmbeddedStore(w), n, n) }

// loadChain builds the chain through s, back to front so each cell's
// next ref is already persistent, batch cells per transaction.
func loadChain(s Store, n, batch int) (ode.OID, error) {
	cell, head := s.World().Cell, ode.NilOID
	for built := 0; built < n; built += batch {
		end := min(built+batch, n)
		err := s.RunTx(func(tx Tx) error {
			for i := built; i < end; i++ {
				o := ode.NewObject(cell)
				o.MustSet("value", ode.Int(int64(n-1-i)))
				o.MustSet("next", ode.Ref(head))
				oid, err := tx.PNew(cell, o)
				if err != nil {
					return err
				}
				head = oid
			}
			return nil
		})
		if err != nil {
			return ode.NilOID, err
		}
	}
	return head, nil
}

// LoadPartDAG builds a part DAG with the given depth and fanout in one
// transaction: level 0 is the root; each part at level d < depth has
// `fanout` children chosen from level d+1 (levels have width `width`).
// Returns the root and the part count.
func (w *World) LoadPartDAG(depth, width, fanout int, seed int64) (ode.OID, int, error) {
	return loadPartDAG(NewEmbeddedStore(w), depth, width, fanout, seed)
}

func loadPartDAG(s Store, depth, width, fanout int, seed int64) (ode.OID, int, error) {
	r := rand.New(rand.NewSource(seed))
	part := s.World().Part
	var root ode.OID
	total := 0
	err := s.RunTx(func(tx Tx) error {
		mk := func(name string) (ode.OID, error) {
			o := ode.NewObject(part)
			o.MustSet("name", ode.Str(name))
			total++
			return tx.PNew(part, o)
		}
		levels := make([][]ode.OID, depth+1)
		var err error
		root, err = mk("root")
		if err != nil {
			return err
		}
		levels[0] = []ode.OID{root}
		for d := 1; d <= depth; d++ {
			for i := 0; i < width; i++ {
				oid, err := mk(fmt.Sprintf("p-%d-%d", d, i))
				if err != nil {
					return err
				}
				levels[d] = append(levels[d], oid)
			}
		}
		for d := 0; d < depth; d++ {
			for _, parent := range levels[d] {
				o, err := tx.Deref(parent)
				if err != nil {
					return err
				}
				set := o.MustGet("subparts").Set()
				for k := 0; k < fanout; k++ {
					set.Insert(ode.Ref(levels[d+1][r.Intn(len(levels[d+1]))]))
				}
				if err := tx.Update(parent, o); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return root, total, err
}

// LoadEmpDept loads nEmp employees over nDept departments.
func (w *World) LoadEmpDept(nEmp, nDept int) error {
	err := w.DB.RunTx(func(tx *ode.Tx) error {
		for d := 0; d < nDept; d++ {
			o := ode.NewObject(w.Dept)
			o.MustSet("deptno", ode.Int(int64(d)))
			o.MustSet("dname", ode.Str(fmt.Sprintf("dept-%03d", d)))
			if _, err := tx.PNew(w.Dept, o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = batchInsert(NewEmbeddedStore(w), nEmp, 1000, func(tx Tx, i int) (ode.OID, error) {
		o := ode.NewObject(w.Emp)
		o.MustSet("name", ode.Str(fmt.Sprintf("emp-%06d", i)))
		o.MustSet("deptno", ode.Int(int64(i%nDept)))
		o.MustSet("salary", ode.Int(int64(1000+i%9000)))
		return tx.PNew(w.Emp, o)
	})
	return err
}

// batchInsert runs fn n times through s, batch calls per transaction,
// and returns the OIDs fn made.
func batchInsert(s Store, n, batch int, fn func(tx Tx, i int) (ode.OID, error)) ([]ode.OID, error) {
	oids := make([]ode.OID, 0, n)
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		err := s.RunTx(func(tx Tx) error {
			for i := start; i < end; i++ {
				oid, err := fn(tx, i)
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return oids, nil
}

// Subparts is the SuccFunc over the part DAG within tx.
func Subparts(tx *ode.Tx) ode.SuccFunc {
	return func(v ode.Value) ([]ode.Value, error) {
		oid, ok := v.AnyOID()
		if !ok || oid == ode.NilOID {
			return nil, nil
		}
		o, err := tx.Deref(oid)
		if err != nil {
			return nil, err
		}
		return o.MustGet("subparts").Set().Elems(), nil
	}
}
