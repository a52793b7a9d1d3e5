package btree

import (
	"ode/internal/storage"
)

// Delete removes key from the tree. It returns ErrNotFound if absent.
// An underflowing node is either merged with a sibling (when the pair
// fits in one page) or the pair's entries are redistributed evenly; a
// root that empties collapses (and its page is freed), so a tree that
// is emptied returns to the zero-root state.
//
// With variable-length cells the underflow threshold is a byte-fill
// heuristic, not a strict invariant: a redistribution may leave a node
// slightly under it. The tree remains valid in all cases.
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.InvalidPage {
		return ErrNotFound
	}
	// A delete can shrink, merge, or free the rightmost leaf; forget
	// the cached append state (fastput.go) wholesale.
	t.invalidateAppendCache()
	t.reshape()
	root, err := t.load(t.root)
	if err != nil {
		return err
	}
	if err := t.delete(root, key); err != nil {
		return err
	}
	// Collapse trivial roots.
	for {
		if root.leaf {
			if len(root.keys) == 0 {
				if err := t.pool.FreePage(root.id); err != nil {
					return err
				}
				t.root = storage.InvalidPage
			}
			return nil
		}
		if len(root.keys) > 0 {
			return nil
		}
		// Internal root with a single child: the child becomes root.
		child := root.children[0]
		if err := t.pool.FreePage(root.id); err != nil {
			return err
		}
		t.root = child
		root, err = t.load(child)
		if err != nil {
			return err
		}
	}
}

// delete removes key from the subtree rooted at n (already loaded) and
// stores every modified node. On return n's in-memory image is current.
func (t *Tree) delete(n *node, key []byte) error {
	if n.leaf {
		i, found := n.searchLeaf(key)
		if !found {
			return ErrNotFound
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return t.store(n)
	}
	ci := n.childIndex(key)
	child, err := t.load(n.children[ci])
	if err != nil {
		return err
	}
	if err := t.delete(child, key); err != nil {
		return err
	}
	if child.size() >= nodeUnderflow {
		return nil
	}
	return t.rebalance(n, child, ci)
}

// rebalance fixes an underflowing child of n at position ci using its
// left sibling when one exists, else its right sibling.
func (t *Tree) rebalance(n, child *node, ci int) error {
	var left, right *node
	var si int // separator index in n between left and right
	var err error
	if ci > 0 {
		si = ci - 1
		left, err = t.load(n.children[si])
		if err != nil {
			return err
		}
		right = child
	} else {
		si = ci
		left = child
		right, err = t.load(n.children[ci+1])
		if err != nil {
			return err
		}
	}

	sepCost := 0
	if !left.leaf {
		sepCost = 6 + len(n.keys[si])
	}
	if left.size()+right.size()-6+sepCost <= nodeCapacity {
		return t.merge(n, left, right, si)
	}
	return t.redistribute(n, left, right, si)
}

// merge folds right into left, removes the separator from n, and frees
// right's page.
func (t *Tree) merge(n, left, right *node, si int) error {
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[si])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:si], n.keys[si+1:]...)
	n.children = append(n.children[:si+1], n.children[si+2:]...)
	if err := t.store(left); err != nil {
		return err
	}
	if err := t.store(n); err != nil {
		return err
	}
	return t.pool.FreePage(right.id)
}

// redistribute evens the byte fill between left and right and updates
// the separator in n.
func (t *Tree) redistribute(n, left, right *node, si int) error {
	if left.leaf {
		keys := append(append([][]byte{}, left.keys...), right.keys...)
		vals := append(append([][]byte{}, left.vals...), right.vals...)
		total := 0
		for i := range keys {
			total += 4 + len(keys[i]) + len(vals[i])
		}
		// Find the cut where the left half first reaches half the bytes.
		acc, cut := 0, 0
		for i := range keys {
			acc += 4 + len(keys[i]) + len(vals[i])
			if acc >= total/2 {
				cut = i + 1
				break
			}
		}
		if cut <= 0 {
			cut = 1
		}
		if cut >= len(keys) {
			cut = len(keys) - 1
		}
		left.keys = keys[:cut]
		left.vals = vals[:cut]
		right.keys = keys[cut:]
		right.vals = vals[cut:]
		n.keys[si] = clone(right.keys[0])
	} else {
		keys := append(append([][]byte{}, left.keys...), n.keys[si])
		keys = append(keys, right.keys...)
		children := append(append([]storage.PageID{}, left.children...), right.children...)
		cut := len(keys) / 2
		if cut == 0 {
			cut = 1
		}
		newSep := keys[cut]
		left.keys = append([][]byte{}, keys[:cut]...)
		left.children = append([]storage.PageID{}, children[:cut+1]...)
		right.keys = append([][]byte{}, keys[cut+1:]...)
		right.children = append([]storage.PageID{}, children[cut+1:]...)
		n.keys[si] = newSep
	}
	if err := t.store(left); err != nil {
		return err
	}
	if err := t.store(right); err != nil {
		return err
	}
	return t.store(n)
}
