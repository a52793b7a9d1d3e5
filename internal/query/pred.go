// Package query implements the O++ query-processing constructs (paper,
// section 3): the forall iterator over clusters, cluster hierarchies
// and sets, with suchthat filtering and by ordering; multi-variable
// (join) iteration with nested-loop, index-nested-loop, and hash
// strategies; and fixpoint (visit-inserted) iteration for recursive
// queries.
//
// The package answers the paper's CODASYL criticism: "By introducing
// clusters, sets, and high-level iteration facilities ... O++ provides
// an alternative to using object ids to navigate through the database."
// A simple optimizer turns indexable suchthat predicates into index
// range scans.
package query

import (
	"fmt"

	"ode/internal/core"
	"ode/internal/object"
)

// Item is one binding of a forall loop variable: the object id and the
// transaction-visible state of the object.
type Item struct {
	OID core.OID
	Obj *core.Object
}

// Pred is a suchthat predicate over a loop variable.
type Pred interface {
	// Eval tests the predicate against an item.
	Eval(st core.Store, it Item) (bool, error)
}

// imagePred is a predicate that extent scans can test on a stored
// image, before (and instead of) decoding it: FieldPred, IsClass, and
// And, Or and Not built only from those. evalImage has Eval's
// semantics, errors included.
type imagePred interface {
	evalImage(r object.SlotReader) (bool, error)
}

// onImage reports whether p can be tested on stored images: it and
// every predicate it is built from are imagePreds.
func onImage(p Pred) bool {
	switch p := p.(type) {
	case FieldPred, IsClass:
		return true
	case AndPred:
		return allOnImage(p)
	case OrPred:
		return allOnImage(p)
	case NotPred:
		return onImage(p.P)
	}
	return false
}

func allOnImage(ps []Pred) bool {
	for _, p := range ps {
		if !onImage(p) {
			return false
		}
	}
	return true
}

// CmpOp is a comparison operator of a field predicate.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// FieldPred compares a field of the loop variable against a constant.
// It is the indexable predicate form: the optimizer can turn it into an
// index range scan.
type FieldPred struct {
	Name  string
	Op    CmpOp
	Value core.Value
}

// Field starts a field predicate builder.
func Field(name string) FieldBuilder { return FieldBuilder{name: name} }

// FieldBuilder builds FieldPreds fluently.
type FieldBuilder struct{ name string }

// Eq builds name == v.
func (b FieldBuilder) Eq(v core.Value) FieldPred { return FieldPred{b.name, OpEq, v} }

// Ne builds name != v.
func (b FieldBuilder) Ne(v core.Value) FieldPred { return FieldPred{b.name, OpNe, v} }

// Lt builds name < v.
func (b FieldBuilder) Lt(v core.Value) FieldPred { return FieldPred{b.name, OpLt, v} }

// Le builds name <= v.
func (b FieldBuilder) Le(v core.Value) FieldPred { return FieldPred{b.name, OpLe, v} }

// Gt builds name > v.
func (b FieldBuilder) Gt(v core.Value) FieldPred { return FieldPred{b.name, OpGt, v} }

// Ge builds name >= v.
func (b FieldBuilder) Ge(v core.Value) FieldPred { return FieldPred{b.name, OpGe, v} }

// Eval implements Pred.
func (p FieldPred) Eval(_ core.Store, it Item) (bool, error) {
	v, err := it.Obj.Get(p.Name)
	if err != nil {
		return false, err
	}
	return p.test(v)
}

func (p FieldPred) evalImage(r object.SlotReader) (bool, error) {
	i := r.Class.SlotIndex(p.Name)
	if i < 0 {
		return false, fmt.Errorf("%w: field %s.%s", core.ErrNoSuchMember, r.Class.Name, p.Name)
	}
	v, err := r.Slot(i)
	if err != nil {
		return false, err
	}
	return p.test(v)
}

// test compares a value of the field against the constant.
func (p FieldPred) test(v core.Value) (bool, error) {
	c := v.Compare(p.Value)
	switch p.Op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("query: bad comparison op %d", p.Op)
}

func (p FieldPred) String() string {
	return fmt.Sprintf("%s %s %s", p.Name, p.Op, p.Value)
}

// indexBounds translates the predicate to inclusive index-scan bounds
// (Null = open). The residual flag reports whether re-checking the
// predicate per item is still required (true for OpNe).
func (p FieldPred) indexBounds() (lo, hi core.Value, residual bool, ok bool) {
	switch p.Op {
	case OpEq:
		return p.Value, p.Value, false, true
	case OpLe:
		return core.Null, p.Value, false, true
	case OpGe:
		return p.Value, core.Null, false, true
	case OpLt:
		// No exclusive bound in the index API: scan <= and re-check.
		return core.Null, p.Value, true, true
	case OpGt:
		return p.Value, core.Null, true, true
	}
	return core.Null, core.Null, false, false
}

// AndPred is a conjunction.
type AndPred []Pred

// And conjoins predicates.
func And(ps ...Pred) Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return AndPred(ps)
}

// Eval implements Pred.
func (a AndPred) Eval(st core.Store, it Item) (bool, error) {
	for _, p := range a {
		ok, err := p.Eval(st, it)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (a AndPred) evalImage(r object.SlotReader) (bool, error) {
	for _, p := range a {
		ok, err := p.(imagePred).evalImage(r)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// OrPred is a disjunction.
type OrPred []Pred

// Or disjoins predicates.
func Or(ps ...Pred) Pred {
	if len(ps) == 1 {
		return ps[0]
	}
	return OrPred(ps)
}

// Eval implements Pred.
func (o OrPred) Eval(st core.Store, it Item) (bool, error) {
	for _, p := range o {
		ok, err := p.Eval(st, it)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (o OrPred) evalImage(r object.SlotReader) (bool, error) {
	for _, p := range o {
		ok, err := p.(imagePred).evalImage(r)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// NotPred negates a predicate.
type NotPred struct{ P Pred }

// Not negates p.
func Not(p Pred) Pred { return NotPred{P: p} }

// Eval implements Pred.
func (n NotPred) Eval(st core.Store, it Item) (bool, error) {
	ok, err := n.P.Eval(st, it)
	return !ok, err
}

func (n NotPred) evalImage(r object.SlotReader) (bool, error) {
	ok, err := n.P.(imagePred).evalImage(r)
	return !ok, err
}

// FnPred wraps an arbitrary Go predicate (the general suchthat form;
// never indexable).
type FnPred func(st core.Store, it Item) (bool, error)

// Fn wraps a plain function as a predicate.
func Fn(f func(st core.Store, it Item) (bool, error)) Pred { return FnPred(f) }

// Eval implements Pred.
func (f FnPred) Eval(st core.Store, it Item) (bool, error) { return f(st, it) }

// IsClass tests the dynamic class of the loop variable: the O++
// `p is persistent student *` test.
type IsClass struct{ Class *core.Class }

// Is builds a dynamic-class test.
func Is(c *core.Class) Pred { return IsClass{Class: c} }

// Eval implements Pred.
func (p IsClass) Eval(_ core.Store, it Item) (bool, error) {
	return it.Obj.Class().IsA(p.Class), nil
}

func (p IsClass) evalImage(r object.SlotReader) (bool, error) {
	return r.Class.IsA(p.Class), nil
}
