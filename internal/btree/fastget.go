package btree

import (
	"bytes"

	"ode/internal/storage"
)

// Point lookups avoid materializing node structs: they binary-search
// the encoded page bytes directly and copy only the found value. This
// matters because Get dominates object dereferencing (every Deref is a
// directory lookup), while structural operations (Put/Delete) keep the
// simpler decode/mutate/encode path.

// rawInternalChild returns the child to descend into for key, reading
// an internal node's payload in place.
func rawInternalChild(pl []byte, key []byte) storage.PageID {
	cnt := int(le16(pl[0:]))
	child := storage.PageID(le32(pl[2:]))
	off := 6
	// Linear walk: keys are length-prefixed and contiguous; fan-outs of
	// a few hundred keep this cache-friendly and allocation-free.
	for i := 0; i < cnt; i++ {
		kl := int(le16(pl[off:]))
		next := storage.PageID(le32(pl[off+2:]))
		off += 6
		k := pl[off : off+kl]
		off += kl
		if bytes.Compare(key, k) < 0 {
			return child
		}
		child = next
	}
	return child
}

// rawLeafGet finds key in a leaf's payload and returns a copy of its
// value.
func rawLeafGet(pl []byte, key []byte) ([]byte, bool) {
	cnt := int(le16(pl[0:]))
	off := 6
	for i := 0; i < cnt; i++ {
		kl := int(le16(pl[off:]))
		vl := int(le16(pl[off+2:]))
		off += 4
		k := pl[off : off+kl]
		off += kl
		c := bytes.Compare(k, key)
		if c == 0 {
			return clone(pl[off : off+vl]), true
		}
		if c > 0 {
			return nil, false // keys are sorted: passed the slot
		}
		off += vl
	}
	return nil, false
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.InvalidPage {
		return nil, ErrNotFound
	}
	// Fast miss off the append cache (fastput.go): a key above the
	// tree's maximum cannot be present. The exists-check a fresh OID
	// pays on every create takes this path instead of descending to
	// scan the rightmost leaf.
	if t.appendLeaf != storage.InvalidPage && bytes.Compare(key, t.appendKey) > 0 {
		return nil, ErrNotFound
	}
	id, p, err := t.descend(key)
	if err != nil {
		return nil, err
	}
	val, ok := rawLeafGet(p.Payload(), key)
	t.pool.Unpin(id, false)
	if !ok {
		return nil, ErrNotFound
	}
	return val, nil
}

// descend walks raw pages from the root to the leaf that holds key, or
// would hold it, and returns that leaf pinned. Caller holds t.mu and
// has checked that the tree is not empty.
func (t *Tree) descend(key []byte) (storage.PageID, *storage.Page, error) {
	id := t.root
	for {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return storage.InvalidPage, nil, err
		}
		switch p.Type() {
		case storage.TypeBTreeLeaf:
			return id, p, nil
		case storage.TypeBTreeInternal:
			next := rawInternalChild(p.Payload(), key)
			t.pool.Unpin(id, false)
			id = next
		default:
			t.pool.Unpin(id, false)
			return storage.InvalidPage, nil, errf("page %d is not a tree node", id)
		}
	}
}
