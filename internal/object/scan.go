package object

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ode/internal/btree"
	"ode/internal/core"
	"ode/internal/storage"
)

// Extent reads one class's own extent (not subclasses) in OID order,
// one cluster leaf per call, for the query layer's extent scans
// (DESIGN.md, "Extent scans"). It visits the objects whose OIDs were
// allocated before the Extent was made: the allocator is monotonic, so
// an object created later by any transaction lies past the bound and a
// scan ends even under a steady stream of inserts. An Extent is not
// safe for concurrent use.
type Extent struct {
	m        *Manager
	cur      btree.Cursor
	from, to [12]byte // cluster keys: next to read, and the bound
	done     bool
}

// Extent starts a read of class c's extent.
func (m *Manager) Extent(c *core.Class) *Extent {
	e := &Extent{m: m}
	binary.BigEndian.PutUint32(e.from[:], uint32(c.ID()))
	binary.BigEndian.PutUint32(e.to[:], uint32(c.ID()))
	binary.BigEndian.PutUint64(e.to[4:], m.nextOID.Load())
	return e
}

// Next appends to buf the OIDs of the next cluster leaf that holds any
// and returns it; an empty result means the extent is exhausted. The
// manager's read lock is held only for the leaf read, so the OIDs are a
// membership hint: an object deleted before its reader locks it no
// longer resolves (Resolver.Resolve reports it as nil).
func (e *Extent) Next(buf []core.OID) ([]core.OID, error) {
	n := len(buf)
	for !e.done && len(buf) == n {
		e.m.mu.RLock()
		more, err := e.m.cluster.ScanLeaf(&e.cur, e.from[:], e.to[:], func(k, _ []byte) {
			buf = append(buf, oidFromClusterKey(k))
		})
		e.m.mu.RUnlock()
		if err != nil {
			return buf, err
		}
		e.done = !more
		if len(buf) > n {
			binary.BigEndian.PutUint64(e.from[4:], uint64(buf[len(buf)-1])+1)
		}
	}
	return buf, nil
}

// Resolver decodes the current images of batches of objects for one
// goroutine of a scan. It never reads or fills the object cache: a scan
// larger than the cache would only churn it, and a cache hit costs a
// deep copy, about as much as the decode it saves.
type Resolver struct {
	m      *Manager
	dir    btree.Cursor
	keyBuf []byte
	keys   [][]byte
	refs   []heapRef
}

// heapRef is a resolved directory entry: the record's address and the
// batch position it fills.
type heapRef struct {
	rid storage.RID
	i   int
}

// NewResolver returns a resolver over the manager's current state.
func (m *Manager) NewResolver() *Resolver { return &Resolver{m: m} }

// Resolve sets out[i] to the current image of oids[i], or to nil when
// oids[i] names no live object; oids must ascend and out must be as
// long. Under one hold of the manager's read lock it reads the batch's
// directory entries with one forward walk of the directory leaves, sorts
// the records by heap page, and pins each page once, decoding the
// records in place. The lock is never held beyond the call, so the
// caller may run user code between batches. Callers lock the objects
// (S) first: the images are then the committed state for as long as
// the transaction lasts.
func (r *Resolver) Resolve(oids []core.OID, out []*core.Object) error {
	clear(out)
	r.keyBuf = r.keyBuf[:0]
	for _, oid := range oids {
		r.keyBuf = binary.BigEndian.AppendUint64(r.keyBuf, uint64(oid))
	}
	r.keys = r.keys[:0]
	for i := range oids {
		r.keys = append(r.keys, r.keyBuf[8*i:8*i+8:8*i+8])
	}
	r.refs = r.refs[:0]
	m := r.m
	m.mu.RLock()
	defer m.mu.RUnlock()
	err := m.dir.Lookup(&r.dir, r.keys, func(i int, v []byte) error {
		_, _, rid, err := decodeDirEntry(v)
		r.refs = append(r.refs, heapRef{rid: rid, i: i})
		return err
	})
	if err != nil {
		return err
	}
	slices.SortFunc(r.refs, func(a, b heapRef) int {
		return cmp.Or(cmp.Compare(a.rid.Page, b.rid.Page), cmp.Compare(a.rid.Slot, b.rid.Slot))
	})
	for j := 0; j < len(r.refs); {
		page := r.refs[j].rid.Page
		p, err := m.pool.Fetch(page)
		if err != nil {
			return err
		}
		h := storage.AsHeap(p)
		for ; j < len(r.refs) && r.refs[j].rid.Page == page; j++ {
			ref := r.refs[j]
			if out[ref.i], err = m.decodeCurrent(h, ref.rid, oids[ref.i]); err != nil {
				m.pool.Unpin(page, false)
				return err
			}
		}
		m.pool.Unpin(page, false)
	}
	return nil
}

// decodeCurrent decodes the current image of oid from its heap record,
// which the page must hold in place.
func (m *Manager) decodeCurrent(h storage.Heap, rid storage.RID, oid core.OID) (*core.Object, error) {
	rec, err := h.Get(rid.Slot)
	if err != nil {
		return nil, err
	}
	kind, roid, _, image, err := DecodeHeapRecord(rec)
	if err != nil {
		return nil, err
	}
	if kind != recCurrent || roid != oid {
		return nil, fmt.Errorf("%w: directory entry of @%d names a record of @%d (kind %d)", ErrCodec, oid, roid, kind)
	}
	return Decode(m.schema, image)
}

// Footprint counts the pages a full extent scan reads: the record heap,
// and the leaves of the cluster and directory trees.
type Footprint struct {
	HeapPages     int
	ClusterLeaves int
	DirLeaves     int
}

// Footprint measures the manager's current footprint (a walk of the
// heap chain and both trees; diagnostics and tests).
func (m *Manager) Footprint() (Footprint, error) {
	pages, err := m.HeapPages()
	if err != nil {
		return Footprint{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	cs, err := m.cluster.Stats()
	if err != nil {
		return Footprint{}, err
	}
	ds, err := m.dir.Stats()
	return Footprint{HeapPages: len(pages), ClusterLeaves: cs.Leaves, DirLeaves: ds.Leaves}, err
}
