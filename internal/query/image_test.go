package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"ode/internal/core"
	"ode/internal/object"
)

// Extent scans test suchthat clauses on stored images (evalImage) and
// decode only the rows that pass. This checks, image by image, that
// the image test agrees with decode-then-Eval: same verdict, same
// error.
func TestImagePredMatchesEval(t *testing.T) {
	schema := core.NewSchema()
	item := core.NewClass("item").
		Field("name", core.TString).
		Field("qty", core.TInt).
		Field("price", core.TFloat).
		Field("mentor", core.TAnyRef).
		Register(schema)
	gadget := core.NewClass("gadget", item).Field("color", core.TString).Register(schema)
	other := core.NewClass("other").Field("x", core.TInt).Register(schema)

	obj := func(c *core.Class, kv ...any) []byte {
		o := core.NewObject(c)
		for i := 0; i < len(kv); i += 2 {
			o.MustSet(kv[i].(string), kv[i+1].(core.Value))
		}
		return object.Encode(o)
	}
	// A record written before item grew its price and mentor fields:
	// those read as the fields' zero values.
	short := binary.AppendUvarint(nil, uint64(item.ID()))
	short = binary.AppendUvarint(short, 2)
	short = append(short, object.EncodeValue(core.Str("a"))...)
	short = append(short, object.EncodeValue(core.Int(7))...)
	images := map[string][]byte{
		"item":   obj(item, "name", core.Str("b"), "qty", core.Int(7), "price", core.Float(2.5)),
		"ref":    obj(item, "qty", core.Int(-3), "price", core.Float(7), "mentor", core.Ref(5)),
		"gadget": obj(gadget, "name", core.Str("z"), "qty", core.Int(7), "color", core.Str("red")),
		"short":  short,
		"other":  obj(other, "x", core.Int(1)),
	}

	var preds []Pred
	operands := []core.Value{core.Int(7), core.Int(2), core.Float(2.5), core.Float(7), core.Str("b"), core.Str(""), core.Null, core.Ref(5)}
	for _, field := range []string{"name", "qty", "price", "mentor", "color", "nope"} {
		for _, v := range operands {
			b := Field(field)
			preds = append(preds, b.Eq(v), b.Ne(v), b.Lt(v), b.Le(v), b.Gt(v), b.Ge(v))
		}
	}
	preds = append(preds,
		Is(item), Is(gadget), Is(other),
		And(Field("qty").Ge(core.Int(0)), Is(gadget)),
		Or(Field("price").Gt(core.Int(5)), Field("name").Eq(core.Str("b"))),
		Not(Field("mentor").Eq(core.Null)),
		And(Or(Is(gadget), Field("qty").Lt(core.Int(0))), Not(Field("price").Ge(core.Float(2.5)))),
		Or(Is(other), Field("color").Eq(core.Str("red"))),
		Not(And(Is(item), Field("nope").Eq(core.Int(1)))),
	)

	checked := 0
	for name, image := range images {
		o, err := object.Decode(schema, image)
		if err != nil {
			t.Fatal(err)
		}
		r, err := object.NewSlotReader(schema, image)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range preds {
			if !onImage(p) {
				t.Fatalf("%v: not testable on images", p)
			}
			want, wantErr := p.Eval(nil, Item{OID: 1, Obj: o})
			got, gotErr := p.(imagePred).evalImage(r)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
				errors.Is(gotErr, core.ErrNoSuchMember) != errors.Is(wantErr, core.ErrNoSuchMember) {
				t.Errorf("%s, %v: image %v (%v), decoded %v (%v)", name, p, got, gotErr, want, wantErr)
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d cases checked", checked)
	}
}

// A predicate with an Fn anywhere in it is tested on decoded objects.
func TestOnImageRejectsFn(t *testing.T) {
	fn := Fn(func(core.Store, Item) (bool, error) { return true, nil })
	for _, p := range []Pred{fn, And(Field("a").Eq(core.Int(1)), fn), Or(fn), Not(fn), Not(Or(Is(nil), And(fn)))} {
		if onImage(p) {
			t.Errorf("%#v: testable on images, want decode-then-Eval", p)
		}
	}
}

// DoImages yields the rows Do yields, in the same order. A row an
// extent scan passed on its stored image comes undecoded and decodes to
// the object Do binds; rows from the write set, from an Fn predicate's
// decode-then-Eval and from ordered loops come as objects.
func TestDoImagesMatchesDo(t *testing.T) {
	u := newUniversity(t)
	oids := u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	p3, err := tx.Deref(oids["p3"])
	if err != nil {
		t.Fatal(err)
	}
	p3.MustSet("income", core.Int(9000))
	if err := tx.Update(oids["p3"], p3); err != nil {
		t.Fatal(err)
	}
	fresh := core.NewObject(u.student)
	fresh.MustSet("income", core.Int(700))
	if _, err := tx.PNew(u.student, fresh); err != nil {
		t.Fatal(err)
	}
	rich := func(_ core.Store, it Item) (bool, error) { return it.Obj.MustGet("income").Int() >= 300, nil }
	loops := []struct {
		name   string
		q      func() *Query
		images bool // some rows come as images
	}{
		{"extent", func() *Query { return Forall(tx, u.person) }, true},
		{"hierarchy", func() *Query { return Forall(tx, u.person).Subtypes() }, true},
		{"field", func() *Query { return Forall(tx, u.person).Subtypes().SuchThat(Field("income").Ge(core.Int(300))) }, true},
		{"fn", func() *Query { return Forall(tx, u.person).Subtypes().SuchThat(Fn(rich)) }, false},
		{"ordered", func() *Query { return Forall(tx, u.person).Subtypes().By("income") }, false},
	}
	schema := tx.Schema()
	for _, l := range loops {
		want, err := l.q().Collect()
		if err != nil {
			t.Fatal(err)
		}
		var got []Item
		images := 0
		err = l.q().DoImages(func(it Item, image []byte) (bool, error) {
			if (image == nil) == (it.Obj == nil) {
				return false, fmt.Errorf("oid %d: image %x, object %v", it.OID, image, it.Obj)
			}
			if image != nil {
				images++
				var err error
				if it.Obj, err = object.Decode(schema, image); err != nil {
					return false, err
				}
			}
			got = append(got, it)
			return true, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: DoImages yielded %d rows, Do %d", l.name, len(got), len(want))
		}
		for i := range got {
			if got[i].OID != want[i].OID || !got[i].Obj.EqualState(want[i].Obj) {
				t.Fatalf("%s: row %d is %d %v, want %d %v", l.name, i, got[i].OID, got[i].Obj, want[i].OID, want[i].Obj)
			}
		}
		if l.images != (images > 0) || images >= len(got) {
			t.Errorf("%s: %d of %d rows came as images", l.name, images, len(got))
		}
	}
}
