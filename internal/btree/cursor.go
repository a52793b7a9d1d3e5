package btree

import (
	"bytes"

	"ode/internal/storage"
)

// Cursor carries a leaf position from one call of ScanLeaf or Lookup
// to the next, so a forward walk made of many short calls — each under
// its caller's read lock — pays one pin per leaf instead of one descent
// per call. The position is trusted only while the tree's shape is
// unchanged: any split, merge, redistribution, or page free since the
// last call makes the next call descend afresh. The zero Cursor is
// ready to use.
type Cursor struct {
	t     *Tree
	leaf  storage.PageID
	shape uint64
}

// reshape records a structural change: leaf boundaries may have moved
// or pages been freed, so every outstanding cursor must re-descend.
// Called with t.mu held for writing.
func (t *Tree) reshape() { t.shape++ }

// leafAt returns the cursor's leaf when it is still trustworthy, else
// InvalidPage. Caller holds t.mu.
func (c *Cursor) leafAt(t *Tree) storage.PageID {
	if c.t != t || c.shape != t.shape {
		return storage.InvalidPage
	}
	return c.leaf
}

func (c *Cursor) set(t *Tree, leaf storage.PageID) {
	c.t, c.leaf, c.shape = t, leaf, t.shape
}

// cell reads the leaf cell at payload offset off: its key, its value,
// and the offset of the next cell.
func cell(pl []byte, off int) (k, v []byte, next int) {
	kl := int(le16(pl[off:]))
	vl := int(le16(pl[off+2:]))
	off += 4
	return pl[off : off+kl], pl[off+kl : off+kl+vl], off + kl + vl
}

// ScanLeaf visits, in key order, the entries of one leaf with
// from <= key < to (a nil to is unbounded). The leaf is the cursor's
// when the tree's shape is unchanged since the cursor's last call, else
// the one a descent for from reaches. A caller walking forward passes,
// each time, a from just above the last key it saw. The slices passed
// to fn alias the pinned page and are valid only during the call.
//
// ScanLeaf leaves the cursor at the next leaf and reports whether the
// walk can continue there: false once the leaf chain ends or a key
// >= to is seen.
func (t *Tree) ScanLeaf(c *Cursor, from, to []byte, fn func(k, v []byte)) (more bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.InvalidPage {
		return false, nil
	}
	var p *storage.Page
	id := c.leafAt(t)
	if id != storage.InvalidPage {
		p, err = t.pool.Fetch(id)
	} else {
		id, p, err = t.descend(from)
	}
	if err != nil {
		return false, err
	}
	defer t.pool.Unpin(id, false)
	pl := p.Payload()
	cnt := int(le16(pl[0:]))
	for i, off := 0, 6; i < cnt; i++ {
		k, v, next := cell(pl, off)
		off = next
		if bytes.Compare(k, from) < 0 {
			continue
		}
		if to != nil && bytes.Compare(k, to) >= 0 {
			return false, nil
		}
		fn(k, v)
	}
	next := storage.PageID(le32(pl[2:]))
	c.set(t, next)
	return next != storage.InvalidPage, nil
}

// Lookup finds keys, which must ascend, with one forward walk along the
// leaf chain: it starts at the cursor's leaf (or descends for keys[0]),
// pins each leaf it passes once, and calls fn with the index and value
// of every key present. The value aliases the pinned page and is valid
// only during the call. The cursor is left at the last leaf read, where
// a later call with larger keys resumes. A key beyond the leaf after
// the one it was sought in costs a fresh descent rather than a walk
// over the leaves between.
func (t *Tree) Lookup(c *Cursor, keys [][]byte, fn func(i int, v []byte) error) error {
	if len(keys) == 0 {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == storage.InvalidPage {
		return nil
	}
	var l leafReader
	defer l.release(t)
	if id := c.leafAt(t); id != storage.InvalidPage {
		if err := l.pin(t, id); err != nil {
			return err
		}
		if k, _, _ := l.cell(); l.cnt == 0 || bytes.Compare(keys[0], k) < 0 {
			// The walk restarted below the cursor (a new extent, say).
			l.release(t)
		}
	}
	for i, key := range keys {
		hopped, descended := false, false
		for {
			if l.id == storage.InvalidPage || (l.idx == l.cnt && hopped) {
				if descended {
					break // past its own leaf and the next: absent
				}
				l.release(t)
				id, p, err := t.descend(key)
				if err != nil {
					return err
				}
				l.hold(id, p)
				hopped, descended = false, true
			}
			if l.idx == l.cnt {
				next := l.next()
				if next == storage.InvalidPage {
					c.set(t, l.id)
					return nil // every remaining key is past the last
				}
				l.release(t)
				if err := l.pin(t, next); err != nil {
					return err
				}
				hopped = true
				continue
			}
			k, v, off := l.cell()
			cmp := bytes.Compare(k, key)
			if cmp == 0 {
				if err := fn(i, v); err != nil {
					return err
				}
			}
			if cmp >= 0 {
				break
			}
			l.idx, l.off = l.idx+1, off
		}
	}
	c.set(t, l.id)
	return nil
}

// leafReader walks the cells of one pinned leaf in place.
type leafReader struct {
	id       storage.PageID // InvalidPage when nothing is pinned
	pl       []byte
	cnt, idx int
	off      int
}

func (l *leafReader) pin(t *Tree, id storage.PageID) error {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	l.hold(id, p)
	return nil
}

// hold starts reading the pinned leaf p at its first cell.
func (l *leafReader) hold(id storage.PageID, p *storage.Page) {
	pl := p.Payload()
	*l = leafReader{id: id, pl: pl, cnt: int(le16(pl[0:])), off: 6}
}

func (l *leafReader) release(t *Tree) {
	if l.id != storage.InvalidPage {
		t.pool.Unpin(l.id, false)
		l.id = storage.InvalidPage
	}
}

// cell returns the current cell and the offset of the one after it;
// the leaf must have one left (idx < cnt).
func (l *leafReader) cell() (k, v []byte, next int) {
	if l.idx == l.cnt {
		return nil, nil, l.off
	}
	return cell(l.pl, l.off)
}

func (l *leafReader) next() storage.PageID { return storage.PageID(le32(l.pl[2:])) }
