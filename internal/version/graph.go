// Package version implements tree (branching) versioning, the
// extension the paper defers to its reference [4] ("O++ allows the
// version graph of an object to be a tree"). The core engine provides
// linear version chains (newversion / frozen version records); this
// package adds a parent graph per object, so a new version can be
// derived from *any* existing version, creating branches — the
// engineering-database checkout/branch model.
//
// The graph is durable: each versioned object gets a companion object
// of the reserved class "__vgraph" holding the parent array, riding the
// ordinary transaction/WAL/recovery machinery.
package version

import (
	"errors"
	"fmt"

	"ode/internal/core"
	"ode/internal/txn"
)

// GraphClassName is the reserved class holding version-parent graphs.
const GraphClassName = "__vgraph"

// NoParent marks a root version in the parent array.
const NoParent = int64(-1)

// ErrNoGraph is returned when an object has no version graph yet.
var ErrNoGraph = errors.New("version: object has no version graph")

// RegisterGraphClass adds the system graph class to a schema. Call it
// before opening the database.
func RegisterGraphClass(s *core.Schema) *core.Class {
	if c, ok := s.ClassNamed(GraphClassName); ok {
		return c
	}
	return core.NewClass(GraphClassName).
		Field("target", core.TAnyRef).
		// parents[v] = parent version of frozen version v (NoParent for
		// roots); curParent = parent version of the live current state.
		Field("parents", core.ArrayOfType(core.TInt)).
		Field("curParent", core.TInt).
		Register(s)
}

// Service manages version graphs inside transactions. One Service per
// database; it is stateless beyond the class handles.
type Service struct {
	cls *core.Class
}

// NewService builds a service against the schema's graph class. The
// caller must have created the class's cluster (the database layer or
// test harness does this once).
func NewService(schema *core.Schema) (*Service, error) {
	cls, ok := schema.ClassNamed(GraphClassName)
	if !ok {
		return nil, fmt.Errorf("version: schema lacks %s (call RegisterGraphClass before opening)", GraphClassName)
	}
	return &Service{cls: cls}, nil
}

// Class returns the graph class (for cluster creation).
func (s *Service) Class() *core.Class { return s.cls }

// graphOf finds the graph companion of oid by scanning the graph
// extent. Graphs are only created by this service, one per object.
func (s *Service) graphOf(tx *txn.Tx, oid core.OID) (core.OID, *core.Object, error) {
	var goid core.OID
	var gobj *core.Object
	graphs, err := tx.Manager().ClusterOIDs(s.cls)
	if err != nil {
		return core.NilOID, nil, err
	}
	for _, g := range graphs {
		o, err := tx.Deref(g)
		if err != nil {
			return core.NilOID, nil, err
		}
		if t, ok := o.MustGet("target").AnyOID(); ok && t == oid {
			goid, gobj = g, o
			break
		}
	}
	// Graphs created in this transaction are not in the extent yet.
	if gobj == nil {
		for _, w := range tx.WriteSet() {
			if tx.IsDeleted(w) {
				continue
			}
			o, err := tx.Deref(w)
			if err != nil {
				continue
			}
			if o.Class() == s.cls {
				if t, ok := o.MustGet("target").AnyOID(); ok && t == oid {
					goid, gobj = w, o
					break
				}
			}
		}
	}
	if gobj == nil {
		return core.NilOID, nil, fmt.Errorf("%w: @%d", ErrNoGraph, oid)
	}
	return goid, gobj, nil
}

// ensureGraph returns oid's graph, creating an empty one if absent.
func (s *Service) ensureGraph(tx *txn.Tx, oid core.OID) (core.OID, *core.Object, error) {
	goid, gobj, err := s.graphOf(tx, oid)
	if err == nil {
		return goid, gobj, nil
	}
	if !errors.Is(err, ErrNoGraph) {
		return core.NilOID, nil, err
	}
	g := core.NewObject(s.cls)
	g.MustSet("target", core.Ref(oid))
	g.MustSet("curParent", core.Int(NoParent))
	goid, err = tx.PNew(s.cls, g)
	if err != nil {
		return core.NilOID, nil, err
	}
	return goid, g, nil
}

// Checkpoint freezes the current state as a new version whose parent is
// the previously frozen head — the linear newversion, but recorded in
// the graph. Returns the frozen version's reference.
func (s *Service) Checkpoint(tx *txn.Tx, oid core.OID) (core.VRef, error) {
	goid, g, err := s.ensureGraph(tx, oid)
	if err != nil {
		return core.VRef{}, err
	}
	ref, err := tx.NewVersion(oid)
	if err != nil {
		return core.VRef{}, err
	}
	parents := g.MustGet("parents").Array()
	for int64(parents.Len()) <= int64(ref.Version) {
		parents.Append(core.Int(NoParent))
	}
	parents.SetAt(int(ref.Version), g.MustGet("curParent"))
	g.MustSet("curParent", core.Int(int64(ref.Version)))
	if err := tx.Update(goid, g); err != nil {
		return core.VRef{}, err
	}
	return ref, nil
}

// Derive branches: it freezes the current state (like Checkpoint) and
// then resets the live state to that of `from`, so subsequent updates
// continue from the chosen historical version. The live state's parent
// becomes `from`. Returns the reference of the frozen pre-branch head.
func (s *Service) Derive(tx *txn.Tx, from core.VRef) (core.VRef, error) {
	oid := from.OID
	// Validate the source version exists (and capture its state).
	src, err := tx.DerefVersion(from)
	if err != nil {
		return core.VRef{}, err
	}
	goid, g, err := s.ensureGraph(tx, oid)
	if err != nil {
		return core.VRef{}, err
	}
	head, err := tx.NewVersion(oid) // freeze the old branch head
	if err != nil {
		return core.VRef{}, err
	}
	parents := g.MustGet("parents").Array()
	for int64(parents.Len()) <= int64(head.Version) {
		parents.Append(core.Int(NoParent))
	}
	parents.SetAt(int(head.Version), g.MustGet("curParent"))
	g.MustSet("curParent", core.Int(int64(from.Version)))
	if err := tx.Update(goid, g); err != nil {
		return core.VRef{}, err
	}
	// Reset the live state to the branch point.
	if err := tx.Update(oid, src); err != nil {
		return core.VRef{}, err
	}
	return head, nil
}

// Parent returns the parent version of ref (false for roots).
func (s *Service) Parent(tx *txn.Tx, ref core.VRef) (core.VRef, bool, error) {
	_, g, err := s.graphOf(tx, ref.OID)
	if err != nil {
		return core.VRef{}, false, err
	}
	cur, err := tx.CurrentVersion(ref.OID)
	if err != nil {
		return core.VRef{}, false, err
	}
	var p int64
	if ref.Version == cur {
		p = g.MustGet("curParent").Int()
	} else {
		parents := g.MustGet("parents").Array()
		if int(ref.Version) >= parents.Len() {
			return core.VRef{}, false, fmt.Errorf("version: @%d has no version %d in its graph", ref.OID, ref.Version)
		}
		p = parents.At(int(ref.Version)).Int()
	}
	if p == NoParent {
		return core.VRef{}, false, nil
	}
	return core.VRef{OID: ref.OID, Version: uint32(p)}, true, nil
}

// Children returns the versions derived directly from ref (including
// the live current state, reported with the current version number).
func (s *Service) Children(tx *txn.Tx, ref core.VRef) ([]core.VRef, error) {
	_, g, err := s.graphOf(tx, ref.OID)
	if err != nil {
		return nil, err
	}
	var out []core.VRef
	parents := g.MustGet("parents").Array()
	for v := 0; v < parents.Len(); v++ {
		if parents.At(v).Int() == int64(ref.Version) {
			out = append(out, core.VRef{OID: ref.OID, Version: uint32(v)})
		}
	}
	if g.MustGet("curParent").Int() == int64(ref.Version) {
		cur, err := tx.CurrentVersion(ref.OID)
		if err != nil {
			return nil, err
		}
		out = append(out, core.VRef{OID: ref.OID, Version: cur})
	}
	return out, nil
}

// IsAncestor reports whether a is an ancestor of b in the version tree.
func (s *Service) IsAncestor(tx *txn.Tx, a, b core.VRef) (bool, error) {
	if a.OID != b.OID {
		return false, nil
	}
	for {
		p, ok, err := s.Parent(tx, b)
		if err != nil || !ok {
			return false, err
		}
		if p.Version == a.Version {
			return true, nil
		}
		b = p
	}
}

// History returns the path from ref back to its root, nearest parent
// first.
func (s *Service) History(tx *txn.Tx, ref core.VRef) ([]core.VRef, error) {
	var out []core.VRef
	for {
		p, ok, err := s.Parent(tx, ref)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
		ref = p
	}
}
