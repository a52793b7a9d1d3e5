package btree

import (
	"bytes"

	"ode/internal/storage"
)

// The write-path analogue of fastget.go: a Put whose leaf has room is
// a small memmove inside one page, so it avoids materializing node
// structs entirely. Every persistent write funnels through the OID
// directory and cluster-extent trees, which made the decode/mutate/
// encode Put the dominant CPU cost of a commit; splits (one in
// hundreds of inserts at our fan-outs) still take the structural path
// in btree.go. On top of the in-place put, the tree keeps an append
// cache for the rightmost leaf: both hot trees receive monotonically
// ascending keys, so the common insert is "past the maximum", which
// the cache turns into a single page write with one key compare.

// leafPutResult reports what an in-place leaf put did, so fastPut can
// maintain the tree's append cache.
type leafPutResult struct {
	ok    bool           // cell written (false: would overflow, page untouched)
	atEnd bool           // the cell is now the leaf's last
	end   int            // payload offset one past the last cell
	cnt   int            // cell count after the put
	next  storage.PageID // right-sibling link
}

// rawLeafPut inserts or replaces key within a leaf page in place.
// When the updated cell region would overflow the payload it leaves
// the page untouched and reports ok=false; the caller then takes the
// decode-and-split path.
func rawLeafPut(p *storage.Page, key, value []byte) leafPutResult {
	pl := p.Payload()
	cnt := int(le16(pl[0:]))
	next := storage.PageID(le32(pl[2:]))
	off := 6
	var (
		found  bool
		oldLen int // size of the cell being replaced, 0 on insert
	)
	i := 0
	for ; i < cnt; i++ {
		kl := int(le16(pl[off:]))
		vl := int(le16(pl[off+2:]))
		c := bytes.Compare(pl[off+4:off+4+kl], key)
		if c >= 0 {
			if c == 0 {
				found = true
				oldLen = 4 + kl + vl
			}
			break
		}
		off += 4 + kl + vl
	}
	end := off // advances past every remaining cell, i included
	for j := i; j < cnt; j++ {
		end += 4 + int(le16(pl[end:])) + int(le16(pl[end+2:]))
	}
	cell := 4 + len(key) + len(value)
	newEnd := end - oldLen + cell
	if newEnd > len(pl) {
		return leafPutResult{next: next}
	}
	copy(pl[off+cell:newEnd], pl[off+oldLen:end])
	put16(pl[off:], uint16(len(key)))
	put16(pl[off+2:], uint16(len(value)))
	copy(pl[off+4:], key)
	copy(pl[off+4+len(key):], value)
	newCnt := cnt
	if !found {
		newCnt++
		put16(pl[0:], uint16(newCnt))
	}
	return leafPutResult{
		ok:    true,
		atEnd: off+cell == newEnd,
		end:   newEnd,
		cnt:   newCnt,
		next:  next,
	}
}

// appendPut is the ascending-insert fast path: when key sorts above
// the cached maximum and the rightmost leaf has room, the new cell is
// written straight at its end. Called with t.mu held; reports whether
// it handled the Put.
func (t *Tree) appendPut(key, value []byte) (bool, error) {
	if t.appendLeaf == storage.InvalidPage || bytes.Compare(key, t.appendKey) <= 0 {
		return false, nil
	}
	cell := 4 + len(key) + len(value)
	if t.appendEnd+cell > nodeCapacity {
		return false, nil
	}
	p, err := t.pool.Fetch(t.appendLeaf)
	if err != nil {
		return false, err
	}
	pl := p.Payload()
	off := t.appendEnd
	put16(pl[off:], uint16(len(key)))
	put16(pl[off+2:], uint16(len(value)))
	copy(pl[off+4:], key)
	copy(pl[off+4+len(key):], value)
	t.appendCnt++
	put16(pl[0:], uint16(t.appendCnt))
	t.pool.Unpin(t.appendLeaf, true)
	t.appendEnd = off + cell
	t.appendKey = append(t.appendKey[:0], key...)
	return true, nil
}

// setAppendCache records the rightmost leaf's state after a put that
// extended it.
func (t *Tree) setAppendCache(id storage.PageID, maxKey []byte, end, cnt int) {
	t.appendLeaf = id
	t.appendKey = append(t.appendKey[:0], maxKey...)
	t.appendEnd = end
	t.appendCnt = cnt
}

// invalidateAppendCache forgets the rightmost-leaf state; called on
// deletes and structural inserts, which may move or shrink the leaf.
func (t *Tree) invalidateAppendCache() {
	t.appendLeaf = storage.InvalidPage
}

// fastPut descends without decoding and inserts in place when the
// leaf has room. It reports whether it handled the Put; on false the
// caller falls back to the structural insert. Called with t.mu held.
func (t *Tree) fastPut(key, value []byte) (bool, error) {
	id, p, err := t.descend(key)
	if err != nil {
		return false, err
	}
	res := rawLeafPut(p, key, value)
	t.pool.Unpin(id, res.ok)
	if res.ok {
		if res.atEnd && res.next == storage.InvalidPage {
			t.setAppendCache(id, key, res.end, res.cnt)
		} else if id == t.appendLeaf {
			// The leaf's cell region moved under the cache.
			t.invalidateAppendCache()
		}
	}
	return res.ok, nil
}
