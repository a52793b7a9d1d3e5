package oql

import (
	"path/filepath"
	"strings"
	"testing"

	"ode"
)

// run executes an O++ program against a fresh database and returns
// what it printed.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := tryRun(t, src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func tryRun(t *testing.T, src string) (string, error) {
	t.Helper()
	schema := ode.NewSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "oql.odb"), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var buf strings.Builder
	sess := NewSession(db, &buf)
	if err := sess.Exec(src); err != nil {
		// End the session's transaction anyway: one left open would
		// hold db.Close for the whole close timeout.
		sess.AbortTx()
		return buf.String(), err
	}
	if err := sess.Close(); err != nil {
		return buf.String(), err
	}
	return buf.String(), nil
}

func lines(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func TestHelloArithmetic(t *testing.T) {
	got := run(t, `
x := 2 + 3 * 4;
y := (2 + 3) * 4;
print(x, y, x < y, 10 / 4, 10.0 / 4, 10 % 3);
`)
	want := "14 20 true 2 2.5 1\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestStringsAndChars(t *testing.T) {
	got := run(t, `
s := "hello" + " " + "ode";
print(s, len(s), 'x');
`)
	if got != "hello ode 9 x\n" {
		t.Errorf("got %q", got)
	}
}

func TestControlFlow(t *testing.T) {
	got := run(t, `
total := 0;
i := 0;
while (i < 10) {
  i = i + 1;
  if (i % 2 == 0) { continue; }
  if (i > 7) { break; }
  total = total + i;
}
print(total, i);
`)
	if got != "16 9\n" { // 1+3+5+7 summed; break at i=9 before adding
		t.Errorf("got %q", got)
	}
}

// TestStockitemLifecycle reproduces the paper's section 2 example:
// declare stockitem, create its cluster, pnew an item, query and
// update it, pdelete it.
func TestStockitemLifecycle(t *testing.T) {
	got := run(t, `
class stockitem {
  public:
    string name;
    float price;
    int qty;
    int threshold;
    float consumption() { return qty * price; }
};
create cluster stockitem;
sip := pnew stockitem{name: "512k dram", price: 0.05, qty: 7500, threshold: 1000};
print(sip.name, sip.qty, sip.consumption());
sip.qty = sip.qty - 500;
print(sip.qty);
b := exists(sip);
pdelete sip;
print(b, exists(sip));
`)
	want := "512k dram 7500 375\n7000\ntrue false\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestUniversityIncomeQuery reproduces the paper's section 3.1 income
// aggregation over the person hierarchy with `is` tests.
func TestUniversityIncomeQuery(t *testing.T) {
	got := run(t, `
class person {
  public:
    string name;
    int income;
};
class student : person { public: string school; };
class faculty : person { public: string dept; };
create cluster person;
create cluster student;
create cluster faculty;

pnew person{name: "p1", income: 100};
pnew person{name: "p2", income: 200};
pnew student{name: "s1", income: 10, school: "eng"};
pnew student{name: "s2", income: 20, school: "law"};
pnew faculty{name: "f1", income: 5000, dept: "cs"};

incomep := 0; np := 0;
incomes := 0; ns := 0;
incomef := 0; nf := 0;
forall p in person* {
  incomep = incomep + p.income; np = np + 1;
  if (p is persistent student *) { incomes = incomes + p.income; ns = ns + 1; }
  else { if (p is faculty) { incomef = incomef + p.income; nf = nf + 1; } }
}
print(incomep / np, incomes / ns, incomef / nf);
`)
	if got != "1066 15 5000\n" {
		t.Errorf("got %q", got)
	}
}

func TestForallSuchthatByDesc(t *testing.T) {
	got := run(t, `
class item { public: string name; int qty; };
create cluster item;
pnew item{name: "a", qty: 5};
pnew item{name: "b", qty: 15};
pnew item{name: "c", qty: 10};
forall i in item suchthat (i.qty >= 10) by (i.qty) desc {
  print(i.name, i.qty);
}
`)
	if got != "b 15\nc 10\n" {
		t.Errorf("got %q", got)
	}
}

func TestSetOperationsAndFixpoint(t *testing.T) {
	got := run(t, `
set<int> s = {1, 2, 3};
insert(s, 4);
remove(s, 2);
print(len(s), member(s, 1), member(s, 2));
n := 0;
forall x in (s) {
  n = n + 1;
  if (x < 10) { insert(s, x + 10); }
}
print(n, len(s));
`)
	// s = {1,3,4}; fixpoint adds 11,13,14 (each <10 adds one; 11,13,14
	// are >= 10 so stop). Visits: 1,3,4,11,13,14 = 6.
	if got != "3 true false\n6 6\n" {
		t.Errorf("got %q", got)
	}
}

// TestPartsExplosion reproduces the paper's section 3.2 fixpoint query:
// the transitive closure of part-subpart.
func TestPartsExplosion(t *testing.T) {
	got := run(t, `
class part {
  public:
    string name;
    set<part> subparts;
};
create cluster part;
wheel := pnew part{name: "wheel"};
spoke := pnew part{name: "spoke"};
frame := pnew part{name: "frame"};
bike := pnew part{name: "bike"};
bike.subparts = {wheel, frame};
wheel.subparts = {spoke};

// Fixpoint: collect all parts (transitively) needed for a bike.
needed := {bike};
forall p in (needed) {
  forall sub in (p.subparts) snapshot {
    insert(needed, sub);
  }
}
print(len(needed));
forall p in (needed) suchthat (true) { }
names := "";
forall p in (needed) by (p.name) { names = names + " " + p.name; }
print(names);
`)
	wantLines := []string{"4", " bike frame spoke wheel"}
	gl := lines(got)
	if len(gl) != 2 || gl[0] != wantLines[0] || gl[1] != wantLines[1] {
		t.Errorf("got %q", got)
	}
}

func TestMethodsAndDispatch(t *testing.T) {
	got := run(t, `
class shape {
  public:
    float side;
    float area() { return 0.0; }
    string describe() { return "area=" + str(area()); }
};
class square : shape {
  public:
    float area() { return side * side; }
};
create cluster shape;
create cluster square;
pnew shape{side: 3.0};
pnew square{side: 3.0};
forall s in shape* by (s.area()) {
  print(s.area());
}
`)
	if got != "0\n9\n" {
		t.Errorf("got %q", got)
	}
}

func TestMethodMutatesPersistentReceiver(t *testing.T) {
	got := run(t, `
class counter {
  public:
    int n;
    void bump(int amt) { n = n + amt; }
};
create cluster counter;
c := pnew counter{n: 10};
c.bump(5);
c.bump(7);
print(c.n);
`)
	if got != "22\n" {
		t.Errorf("got %q", got)
	}
}

func TestConstraintAbortsInOQL(t *testing.T) {
	_, err := tryRun(t, `
class acct {
  public:
    int balance;
  constraint:
    balance >= 0;
};
create cluster acct;
a := pnew acct{balance: 100};
a.balance = -5;
commit;
`)
	if err == nil || !strings.Contains(err.Error(), "constraint") {
		t.Fatalf("err = %v, want constraint violation", err)
	}
}

func TestConstraintSpecializationFemale(t *testing.T) {
	// The paper's section 5 example: class female specializes person
	// with a constraint.
	_, err := tryRun(t, `
class person {
  public:
    string name;
    char sex;
};
class female : person {
  constraint:
    sex == 'f';
};
create cluster person;
create cluster female;
pnew female{name: "ann", sex: 'f'};
commit;
pnew female{name: "bob", sex: 'm'};
commit;
`)
	if err == nil || !strings.Contains(err.Error(), "constraint") {
		t.Fatalf("err = %v, want constraint violation for male female", err)
	}
}

func TestVersioningInOQL(t *testing.T) {
	got := run(t, `
class doc { public: string text; };
create cluster doc;
d := pnew doc{text: "v0 text"};
v0 := newversion(d);
d.text = "v1 text";
v1 := newversion(d);
d.text = "v2 text";
print(d.text, v0.text, v1.text);
print(version(d), version(v0), version(v1));
p := vprev(d);
print(p.text);
n := vnext(v0);
print(n.text);
`)
	want := "v2 text v0 text v1 text\n2 0 1\nv1 text\nv1 text\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestTriggerInOQL(t *testing.T) {
	got := run(t, `
class stockitem {
  public:
    string name;
    int qty;
    int reorders;
  trigger:
    reorder(int threshold, int lot) : qty < threshold ==> {
      qty = qty + lot;
      reorders = reorders + 1;
    }
};
create cluster stockitem;
s := pnew stockitem{name: "dram", qty: 100};
tid := activate s.reorder(50, 500);
commit;
s.qty = 10;
commit;
print(s.qty, s.reorders);
// Once-only: no refire.
s.qty = 5;
commit;
print(s.qty, s.reorders);
`)
	want := "510 1\n5 1\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestDeactivateInOQL(t *testing.T) {
	got := run(t, `
class it { public: int q; int fired;
  trigger:
    t() : q < 0 ==> { fired = fired + 1; }
};
create cluster it;
x := pnew it{q: 5};
tid := activate x.t();
commit;
deactivate tid;
commit;
x.q = -1;
commit;
print(x.fired);
`)
	if got != "0\n" {
		t.Errorf("got %q", got)
	}
}

func TestIndexDDLInOQL(t *testing.T) {
	got := run(t, `
class item { public: int qty; };
create cluster item;
i := 0;
while (i < 20) { pnew item{qty: i}; i = i + 1; }
create index item on qty;
n := 0;
forall x in item suchthat (x.qty >= 15) { n = n + 1; }
print(n);
`)
	if got != "5\n" {
		t.Errorf("got %q", got)
	}
}

func TestAbortStatement(t *testing.T) {
	got := run(t, `
class item { public: int qty; };
create cluster item;
p := pnew item{qty: 1};
commit;
p.qty = 99;
abort;
print(p.qty);
`)
	if got != "1\n" {
		t.Errorf("got %q", got)
	}
}

func TestFixpointClusterForallInOQL(t *testing.T) {
	// pnew during a cluster forall: the loop visits the new objects
	// (paper section 3.2 semantics).
	got := run(t, `
class node { public: int depth; };
create cluster node;
pnew node{depth: 0};
n := 0;
forall x in node {
  n = n + 1;
  if (x.depth < 3) { pnew node{depth: x.depth + 1}; }
}
print(n);
`)
	// depth 0 spawns 1, 1 spawns 2, 2 spawns 3: 4 objects visited.
	if got != "4\n" {
		t.Errorf("got %q", got)
	}
}

func TestEvalExpr(t *testing.T) {
	schema := ode.NewSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "e.odb"), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var sink strings.Builder
	sess := NewSession(db, &sink)
	// Closing the session ends its ambient transaction; left open, it
	// would hold db.Close for its whole drain window.
	defer sess.Close()
	if err := sess.Exec(`x := 21;`); err != nil {
		t.Fatal(err)
	}
	got, err := sess.EvalExpr(`x * 2`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "42" {
		t.Errorf("EvalExpr = %q", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`print(nosuch);`, "undefined"},
		{`x := 1 / 0;`, "division by zero"},
		{`class c { public: int x; }; create cluster c; p := pnew c{}; pdelete p; y := p.x;`, "no such object"},
		{`x := pnew ghost{};`, "unknown class"},
		{`class c { public: int x; }; p := pnew c{x: 1};`, "cluster"},
		{`x := 5; x.f = 1;`, "needs an object"},
		{`y = 3;`, "undeclared"},
	}
	for _, c := range cases {
		_, err := tryRun(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestVolatileObjects(t *testing.T) {
	got := run(t, `
class point { public: int x; int y; int sum() { return x + y; } };
p := new point{x: 3, y: 4};
p.x = 10;
print(p.x, p.sum());
`)
	if got != "10 14\n" {
		t.Errorf("got %q", got)
	}
}

func TestOldVersionsReadOnly(t *testing.T) {
	_, err := tryRun(t, `
class d { public: int x; };
create cluster d;
p := pnew d{x: 1};
v := newversion(p);
v.x = 99;
`)
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("err = %v", err)
	}
}

func TestSelfMethodDispatch(t *testing.T) {
	got := run(t, `
class shape {
  public:
    float side;
    float area() { return 0.0; }
    string describe() { return "area=" + str(area()); }
};
class square : shape {
  public:
    float area() { return side * side; }
};
create cluster square;
q := pnew square{side: 4.0};
print(q.describe());
`)
	// describe() on a square dispatches area() virtually to square's.
	if got != "area=16\n" {
		t.Errorf("got %q", got)
	}
}
