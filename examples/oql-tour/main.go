// OQL tour: the same inventory application written in the O++ subset
// itself and executed by the interpreter — the paper's surface syntax,
// end to end: class declarations with constraints and triggers, pnew,
// forall/suchthat/by, versions, and trigger activation.
package main

import (
	"log"
	"os"
	"path/filepath"

	"ode"
	"ode/internal/oql"
)

const program = `
// The paper's stockitem class, O++ style.
class stockitem {
  public:
    string name;
    float price;
    int qty;
    int reorders;
    float stockvalue() { return qty * price; }
  constraint:
    qty >= 0;
  trigger:
    reorder(int threshold, int lot) : qty < threshold ==> {
      qty = qty + lot;
      reorders = reorders + 1;
    }
};

create cluster stockitem;

// Load the inventory.
pnew stockitem{name: "512k dram", price: 0.05, qty: 7500};
pnew stockitem{name: "1m dram",   price: 0.15, qty: 3200};
pnew stockitem{name: "sram",      price: 1.25, qty: 90};
pnew stockitem{name: "eprom",     price: 0.60, qty: 450};
commit;

// Declarative report: items by value, descending.
print("inventory by value:");
forall s in stockitem by (s.stockvalue()) desc {
  print("  ", s.name, s.qty, s.stockvalue());
}

// Arm a reorder trigger on the eprom and drain it.
forall s in stockitem suchthat (s.name == "eprom") {
  tid := activate s.reorder(50, 500);
}
commit;
forall s in stockitem suchthat (s.name == "eprom") {
  s.qty = 10;   // below threshold: the trigger fires at commit
}
commit;
forall s in stockitem suchthat (s.name == "eprom") {
  print("eprom after trigger:", s.qty, "reorders:", s.reorders);
}

// Version the sram item before a price change.
forall s in stockitem suchthat (s.name == "sram") {
  old := newversion(s);
  s.price = 1.10;
  print("sram price now", s.price, "was", old.price);
}
commit;

// Fixpoint flavor: total the quantities via a set worklist.
total := 0;
forall s in stockitem {
  total = total + s.qty;
}
print("total units:", total);
`

func main() {
	dir, err := os.MkdirTemp("", "ode-oql-tour")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	schema := ode.NewSchema()
	db, err := ode.Open(filepath.Join(dir, "tour.odb"), schema, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	sess := oql.NewSession(db, os.Stdout)
	if err := sess.Exec(program); err != nil {
		log.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
}
