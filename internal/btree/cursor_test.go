package btree

import (
	"bytes"
	"math/rand"
	"testing"
)

// The cursor walks must agree with Scan and Get while the tree changes
// shape between calls: a walk resumes on its remembered leaf only when
// no split, merge, or free happened since, and re-descends otherwise.
func TestCursorWalksMatchScanAndGet(t *testing.T) {
	tr := newTestTree(t, 64)
	rng := rand.New(rand.NewSource(7))
	live := map[int]bool{}
	for i := 0; i < 3000; i += 2 {
		if err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
		live[i] = true
	}
	mutate := func() {
		for n := 0; n < 5; n++ {
			i := rng.Intn(3000)
			if live[i] {
				if err := tr.Delete(k(i)); err != nil {
					t.Fatal(err)
				}
				delete(live, i)
			} else {
				if err := tr.Put(k(i), v(i)); err != nil {
					t.Fatal(err)
				}
				live[i] = true
			}
		}
	}
	for round := 0; round < 20; round++ {
		// ScanLeaf walk over [k(500), k(2500)), mutating between calls:
		// each call must yield live entries, in order, inside the range.
		var c Cursor
		from := k(500)
		to := k(2500)
		var last []byte
		for more := true; more; {
			var got [][]byte
			var err error
			more, err = tr.ScanLeaf(&c, from, to, func(key, val []byte) {
				if want := v(atoi(t, key)); !bytes.Equal(val, want) {
					t.Fatalf("ScanLeaf %s = %s, want %s", key, val, want)
				}
				got = append(got, append([]byte(nil), key...))
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range got {
				if last != nil && bytes.Compare(key, last) <= 0 {
					t.Fatalf("ScanLeaf out of order: %s after %s", key, last)
				}
				if bytes.Compare(key, from) < 0 || bytes.Compare(key, to) >= 0 {
					t.Fatalf("ScanLeaf key %s outside [%s, %s)", key, from, to)
				}
				last = key
			}
			if len(got) > 0 {
				from = append(append([]byte(nil), last...), 0)
			}
			mutate()
		}
		// Lookup of ascending batches, mutating between batches.
		var lc Cursor
		for lo := 0; lo < 3000; lo += 97 {
			var keys [][]byte
			for i := lo; i < lo+97 && i < 3000; i += 1 + rng.Intn(3) {
				keys = append(keys, k(i))
			}
			found := map[int]bool{}
			err := tr.Lookup(&lc, keys, func(i int, val []byte) error {
				found[i] = true
				if want := v(atoi(t, keys[i])); !bytes.Equal(val, want) {
					t.Fatalf("Lookup %s = %s, want %s", keys[i], val, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, key := range keys {
				if found[i] != live[atoi(t, key)] {
					t.Fatalf("Lookup %s found=%v, live=%v", key, found[i], live[atoi(t, key)])
				}
			}
			mutate()
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Keys far apart: each is past the leaf after the previous one's,
	// so the walk descends for it instead of stepping leaf by leaf.
	var sparse [][]byte
	for i := 1; i < 3000; i += 211 {
		sparse = append(sparse, k(i))
	}
	var sc Cursor
	found := 0
	if err := tr.Lookup(&sc, sparse, func(int, []byte) error { found++; return nil }); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, key := range sparse {
		if live[atoi(t, key)] {
			want++
		}
	}
	if found != want {
		t.Fatalf("sparse Lookup found %d keys, want %d", found, want)
	}
	// A walk that restarts below the cursor's leaf still finds its keys.
	var c Cursor
	if err := tr.Lookup(&c, [][]byte{k(2998)}, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tr.Lookup(&c, [][]byte{k(0), k(2), k(4)}, func(int, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	want = 0
	for _, i := range []int{0, 2, 4} {
		if live[i] {
			want++
		}
	}
	if n != want {
		t.Fatalf("restarted Lookup found %d keys, want %d", n, want)
	}
}

func atoi(t *testing.T, key []byte) int {
	t.Helper()
	n := 0
	for _, b := range key[len("key-"):] {
		if b < '0' || b > '9' {
			t.Fatalf("bad key %q", key)
		}
		n = n*10 + int(b-'0')
	}
	return n
}
