// University: the paper's section 3.1 running example — a person /
// student / faculty hierarchy with cluster-hierarchy iteration
// (forall p in person*), dynamic `is` tests, indexed suchthat clauses,
// and a two-variable join (students and the faculty advising them).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ode"
)

func schema() (*ode.Schema, *ode.Class, *ode.Class, *ode.Class) {
	s := ode.NewSchema()
	person := ode.NewClass("person").
		Field("name", ode.TString).
		Field("income", ode.TInt).
		Field("age", ode.TInt).
		Register(s)
	student := ode.NewClass("student", person).
		Field("school", ode.TString).
		Field("advisor", ode.RefTo("faculty")).
		Trigger(&ode.TriggerDef{
			// The paper's section 6 active facility: a scholarship
			// tops an enrolled student's income back up whenever it
			// falls below the threshold.
			Name:      "scholarship",
			Perpetual: true,
			Src:       "income < 100 ==> income = 100",
			Cond: func(_ ode.Store, o *ode.Object, _ []ode.Value) (bool, error) {
				return o.MustGet("income").Int() < 100, nil
			},
			Action: func(st ode.Store, o *ode.Object, oid ode.OID, _ []ode.Value) error {
				o.MustSet("income", ode.Int(100))
				return st.Update(oid, o)
			},
		}).
		Register(s)
	faculty := ode.NewClass("faculty", person).
		Field("dept", ode.TString).
		Register(s)
	return s, person, student, faculty
}

func main() {
	dir, err := os.MkdirTemp("", "ode-university")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	s, person, student, faculty := schema()
	db, err := ode.Open(filepath.Join(dir, "univ.odb"), s, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for _, c := range []*ode.Class{person, student, faculty} {
		if err := db.CreateCluster(c); err != nil {
			log.Fatal(err)
		}
	}

	// Populate: some plain persons, faculty, and students advised by
	// the faculty.
	var profs []ode.OID
	err = db.RunTx(func(tx *ode.Tx) error {
		for i := 0; i < 5; i++ {
			o := ode.NewObject(faculty)
			o.MustSet("name", ode.Str(fmt.Sprintf("prof-%d", i)))
			o.MustSet("income", ode.Int(int64(6000+i*500)))
			o.MustSet("age", ode.Int(int64(40+i)))
			o.MustSet("dept", ode.Str([]string{"cs", "math", "cs", "ee", "cs"}[i]))
			oid, err := tx.PNew(faculty, o)
			if err != nil {
				return err
			}
			profs = append(profs, oid)
		}
		for i := 0; i < 20; i++ {
			o := ode.NewObject(student)
			o.MustSet("name", ode.Str(fmt.Sprintf("stud-%02d", i)))
			o.MustSet("income", ode.Int(int64(i*50)))
			o.MustSet("age", ode.Int(int64(20+i%8)))
			o.MustSet("school", ode.Str("engineering"))
			o.MustSet("advisor", ode.Ref(profs[i%len(profs)]))
			if _, err := tx.PNew(student, o); err != nil {
				return err
			}
		}
		for i := 0; i < 10; i++ {
			o := ode.NewObject(person)
			o.MustSet("name", ode.Str(fmt.Sprintf("pers-%02d", i)))
			o.MustSet("income", ode.Int(int64(1000+i*100)))
			o.MustSet("age", ode.Int(int64(25+i)))
			if _, err := tx.PNew(person, o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's income query: average income of persons, students,
	// and faculty in a single pass over person*.
	err = db.View(func(tx *ode.Tx) error {
		var incomeP, incomeS, incomeF int64
		var nP, nS, nF int64
		err := ode.Forall(tx, person).Subtypes().Do(func(it ode.Item) (bool, error) {
			inc := it.Obj.MustGet("income").Int()
			incomeP += inc
			nP++
			switch {
			case it.Obj.Class().IsAName("student"):
				incomeS += inc
				nS++
			case it.Obj.Class().IsAName("faculty"):
				incomeF += inc
				nF++
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("avg income: all persons %d, students %d, faculty %d\n",
			incomeP/nP, incomeS/nS, incomeF/nF)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Index-accelerated selection: rich persons across the hierarchy.
	if err := db.CreateIndex(person, "income"); err != nil {
		log.Fatal(err)
	}
	db.View(func(tx *ode.Tx) error {
		q := ode.Forall(tx, person).Subtypes().SuchThat(ode.Field("income").Ge(ode.Int(6000)))
		n, err := q.Count()
		fmt.Printf("income >= 6000: %d (plan: %s)\n", n, q.Plan())
		return err
	})

	// Join: for each cs student-advisor pair, print both names.
	db.View(func(tx *ode.Tx) error {
		j := ode.Forall(tx, student).
			JoinWith(ode.Forall(tx, faculty).SuchThat(ode.Field("dept").Eq(ode.Str("cs")))).
			OnTheta(func(a, b ode.Item) (bool, error) {
				adv := a.Obj.MustGet("advisor")
				oid, ok := adv.AnyOID()
				return ok && oid == b.OID, nil
			})
		pairs := 0
		err := j.Do(func(a, b ode.Item) (bool, error) {
			pairs++
			return true, nil
		})
		fmt.Printf("students advised by cs faculty: %d (join plan: %s)\n", pairs, j.Plan())
		return err
	})

	// Ordered report.
	fmt.Println("top 3 earners:")
	db.View(func(tx *ode.Tx) error {
		n := 0
		return ode.Forall(tx, person).Subtypes().By("income").Desc().Do(func(it ode.Item) (bool, error) {
			fmt.Printf("  %-10s %6d (%s)\n", it.Obj.MustGet("name").Str(),
				it.Obj.MustGet("income").Int(), it.Obj.Class().Name)
			n++
			return n < 3, nil
		})
	})

	// EXPLAIN: the same income query's access path, computed without
	// running it.
	db.View(func(tx *ode.Tx) error {
		q := ode.Forall(tx, person).Subtypes().SuchThat(ode.Field("income").Ge(ode.Int(6000)))
		fmt.Printf("explain: %s\n", ode.Explain(q))
		return nil
	})

	// Triggers (paper, section 6): arm the scholarship trigger on one
	// student, then cut their income below the threshold; the fired
	// action tops it back up after commit.
	var needy ode.OID
	err = db.RunTx(func(tx *ode.Tx) error {
		err := ode.Forall(tx, student).By("name").Do(func(it ode.Item) (bool, error) {
			needy = it.OID
			return false, nil
		})
		if err != nil {
			return err
		}
		_, err = db.Triggers().Activate(tx, needy, "scholarship")
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	err = db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(needy)
		if err != nil {
			return err
		}
		o.MustSet("income", ode.Int(10))
		return tx.Update(needy, o)
	})
	if err != nil {
		log.Fatal(err)
	}
	db.View(func(tx *ode.Tx) error {
		o, err := tx.Deref(needy)
		if err != nil {
			return err
		}
		fmt.Printf("scholarship topped income up to %d\n", o.MustGet("income").Int())
		return nil
	})

	// The observability surface: every engine layer counts its work.
	st := db.Stats()
	fmt.Printf("stats: commits=%d pool-hits=%d wal-appends=%d foralls=%d "+
		"(extent=%d index=%d) rows-scanned=%d trigger-firings=%d\n",
		st.Txn.Commits, st.Pool.Hits, st.WAL.Appends, st.Query.Foralls,
		st.Query.PlanExtentScan, st.Query.PlanIndexRange,
		st.Query.RowsScanned, st.Trigger.Firings)
}
