package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newTestFile(t testing.TB) *FileStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func newTestPool(t testing.TB, capacity int) (*FileStore, *Pool) {
	t.Helper()
	fs := newTestFile(t)
	return fs, NewPool(fs, capacity, nil, nil)
}

func TestFileCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var boot [BootSize]byte
	copy(boot[:], "hello boot")
	fs.SetBoot(boot)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.id = id
	p.SetType(TypeHeap)
	copy(p.Payload(), "payload bytes")
	if err := fs.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if got := fs2.Boot(); !bytes.HasPrefix(got[:], []byte("hello boot")) {
		t.Error("boot record lost")
	}
	if fs2.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", fs2.NumPages())
	}
	var q Page
	if err := fs2.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Payload(), []byte("payload bytes")) {
		t.Error("page payload lost")
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if _, err := CreateFile(path); err == nil {
		t.Fatal("CreateFile should refuse an existing file")
	}
}

func TestOpenRejectsNonOdeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	junk := make([]byte, PageSize)
	copy(junk, "not a database")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("OpenFile should reject a non-Ode file")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Allocate()
	var p Page
	p.id = id
	p.SetType(TypeHeap)
	copy(p.Payload(), "important")
	if err := fs.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Flip a byte in the page body.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(id)*PageSize+PageHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	var q Page
	if err := fs2.ReadPage(id, &q); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPage err = %v, want checksum failure", err)
	}
}

func TestFreeListReusesPages(t *testing.T) {
	fs := newTestFile(t)
	a, _ := fs.Allocate()
	b, _ := fs.Allocate()
	if err := fs.Free(a); err != nil {
		t.Fatal(err)
	}
	c, _ := fs.Allocate()
	if c != a {
		t.Errorf("expected freed page %d to be reused, got %d", a, c)
	}
	d, _ := fs.Allocate()
	if d == b || d == c {
		t.Errorf("fresh allocation %d collides", d)
	}
	if err := fs.Free(0); err == nil {
		t.Error("freeing the meta page must fail")
	}
}

func TestHeapInsertGetDelete(t *testing.T) {
	var p Page
	p.id = 1
	h := AsHeap(&p)
	s1, err := h.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.Insert([]byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(s1); string(got) != "alpha" {
		t.Errorf("Get(s1) = %q", got)
	}
	if got, _ := h.Get(s2); string(got) != "beta" {
		t.Errorf("Get(s2) = %q", got)
	}
	if err := h.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(s1); !errors.Is(err, ErrNoRecord) {
		t.Errorf("Get after delete err = %v", err)
	}
	if err := h.Delete(s1); !errors.Is(err, ErrNoRecord) {
		t.Errorf("double delete err = %v", err)
	}
	// Slot reuse.
	s3, err := h.Insert([]byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("tombstoned slot not reused: got %d, want %d", s3, s1)
	}
	if h.Live() != 2 {
		t.Errorf("Live = %d, want 2", h.Live())
	}
}

func TestHeapUpdateInPlaceAndGrow(t *testing.T) {
	var p Page
	p.id = 1
	h := AsHeap(&p)
	s, _ := h.Insert([]byte("aaaa"))
	if err := h.Update(s, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(s); string(got) != "bb" {
		t.Errorf("after shrink: %q", got)
	}
	if err := h.Update(s, []byte("cccccccccc")); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(s); string(got) != "cccccccccc" {
		t.Errorf("after grow: %q", got)
	}
}

func TestHeapFillCompactsAndReportsFull(t *testing.T) {
	var p Page
	p.id = 1
	h := AsHeap(&p)
	rec := bytes.Repeat([]byte("x"), 100)
	var slots []uint16
	for {
		s, err := h.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("only %d records of 100 bytes fit in a page", len(slots))
	}
	// Delete every other record, then insert larger records into the
	// fragmented space: compaction must make it work.
	for i := 0; i < len(slots); i += 2 {
		if err := h.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("y"), 150)
	n := 0
	for {
		if _, err := h.Insert(big); err != nil {
			break
		}
		n++
	}
	if n < len(slots)/4 {
		t.Errorf("compaction reclaimed too little: %d big records", n)
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	var p Page
	h := AsHeap(&p)
	if _, err := h.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record must be rejected")
	}
	if _, err := h.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size record must fit: %v", err)
	}
}

func TestPoolFetchCachesAndEvicts(t *testing.T) {
	fs, bp := newTestPool(t, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(p.Payload(), fmt.Sprintf("page-%d", i))
		p.SetType(TypeHeap)
		ids = append(ids, p.ID())
		bp.Unpin(p.ID(), true)
	}
	// All four must be readable even though the pool holds only two.
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("page-%d", i)
		if !bytes.HasPrefix(p.Payload(), []byte(want)) {
			t.Errorf("page %d content %q, want prefix %q", id, p.Payload()[:8], want)
		}
		bp.Unpin(id, false)
	}
	hits, misses, evictions := bp.Stats()
	if evictions == 0 {
		t.Error("expected evictions with pool capacity 2")
	}
	_ = hits
	_ = misses
	_ = fs
}

func TestPoolExhaustionWhenAllPinned(t *testing.T) {
	_, bp := newTestPool(t, 2)
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
	bp.Unpin(p1.ID(), true)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
	_ = p2
}

func TestPoolDirtyEvictionPersists(t *testing.T) {
	fs, bp := newTestPool(t, 1)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	p.SetType(TypeHeap)
	copy(p.Payload(), "dirty data")
	bp.Unpin(id, true)
	// Force eviction by allocating another page.
	q, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(q.ID(), true)
	// Read the evicted page straight from the file.
	var raw Page
	if err := fs.ReadPage(id, &raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw.Payload(), []byte("dirty data")) {
		t.Error("dirty page was not written back on eviction")
	}
}

// Eviction prefers clean frames: a reader cycling through more clean
// pages than the pool holds never writes back the dirty frames another
// writer left behind, while a shard with nothing but dirty frames still
// writes one back rather than failing.
func TestPoolEvictsCleanBeforeDirty(t *testing.T) {
	fs, bp := newTestPool(t, 4)
	var ids []PageID
	for i := 0; i < 10; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.SetType(TypeHeap)
		ids = append(ids, p.ID())
		bp.Unpin(p.ID(), true)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Dirty the first two pages; they become the least recently used.
	for _, id := range ids[:2] {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		copy(p.Payload(), "dirty")
		bp.Unpin(id, true)
	}
	writes := bp.smet.PageWrites.Load()
	for round := 0; round < 3; round++ {
		for _, id := range ids[2:] {
			if _, err := bp.Fetch(id); err != nil {
				t.Fatal(err)
			}
			bp.Unpin(id, false)
		}
	}
	if got := bp.smet.PageWrites.Load() - writes; got != 0 {
		t.Fatalf("a clean read cycle wrote back %d dirty pages", got)
	}
	// Four new dirty pages leave no clean frame: dirty ones must go.
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.SetType(TypeHeap)
		bp.Unpin(p.ID(), true)
	}
	var raw Page
	for _, id := range ids[:2] {
		if err := fs.ReadPage(id, &raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw.Payload(), []byte("dirty")) {
			t.Errorf("page %d was evicted without its write-back", id)
		}
	}
}

func TestPoolFlushAllAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewPool(fs, 8, nil, nil)
	p, _ := bp.NewPage()
	id := p.ID()
	p.SetType(TypeHeap)
	copy(p.Payload(), "flushed")
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	var q Page
	if err := fs2.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Payload(), []byte("flushed")) {
		t.Error("FlushAll did not persist the page")
	}
}

func TestUnpinPanicsWithoutPin(t *testing.T) {
	_, bp := newTestPool(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bp.Unpin(99, false)
}

func TestRecordFileCRUD(t *testing.T) {
	_, bp := newTestPool(t, 8)
	rf := NewRecordFile(bp, InvalidPage)
	rid, err := rf.Insert([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rf.Get(rid)
	if err != nil || string(got) != "first" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	rid2, err := rf.Update(rid, []byte("updated"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rf.Get(rid2); string(got) != "updated" {
		t.Errorf("after update: %q", got)
	}
	if err := rf.Delete(rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Get(rid2); !errors.Is(err, ErrNoRecord) {
		t.Errorf("Get after delete: %v", err)
	}
}

func TestRecordFileSpillsAcrossPages(t *testing.T) {
	_, bp := newTestPool(t, 16)
	rf := NewRecordFile(bp, InvalidPage)
	rec := bytes.Repeat([]byte("z"), 400)
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := rf.Insert(append(rec, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	pages, err := rf.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) < 3 {
		t.Errorf("50 records of 400B should span multiple pages, got %d", len(pages))
	}
	for i, rid := range rids {
		got, err := rf.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if got[len(got)-1] != byte(i) {
			t.Errorf("record %d corrupted", i)
		}
	}
}

func TestRecordFileUpdateRelocates(t *testing.T) {
	_, bp := newTestPool(t, 16)
	rf := NewRecordFile(bp, InvalidPage)
	// Fill a page almost completely.
	pad, err := rf.Insert(bytes.Repeat([]byte("p"), 3000))
	if err != nil {
		t.Fatal(err)
	}
	small, err := rf.Insert([]byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	if pad.Page != small.Page {
		t.Skip("records landed on different pages; cannot force relocation")
	}
	// Grow the small record beyond the page's remaining space.
	newRID, err := rf.Update(small, bytes.Repeat([]byte("g"), 2000))
	if err != nil {
		t.Fatal(err)
	}
	if newRID == small {
		t.Error("expected relocation to a new RID")
	}
	got, err := rf.Get(newRID)
	if err != nil || len(got) != 2000 {
		t.Fatalf("relocated record: %d bytes, %v", len(got), err)
	}
}

func TestRecordFileIterate(t *testing.T) {
	_, bp := newTestPool(t, 16)
	rf := NewRecordFile(bp, InvalidPage)
	want := map[string]bool{}
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("rec-%03d", i)
		if _, err := rf.Insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
		want[s] = true
	}
	got := map[string]bool{}
	err := rf.Iterate(func(_ RID, rec []byte) (bool, error) {
		got[string(rec)] = true
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d records, want %d", len(got), len(want))
	}
	for s := range want {
		if !got[s] {
			t.Errorf("missing %s", s)
		}
	}
}

func TestRecordFileModelCheck(t *testing.T) {
	_, bp := newTestPool(t, 32)
	rf := NewRecordFile(bp, InvalidPage)
	r := rand.New(rand.NewSource(7))
	model := map[RID][]byte{}
	var keys []RID
	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(keys) == 0: // insert
			rec := make([]byte, 1+r.Intn(300))
			r.Read(rec)
			rid, err := rf.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: RID %v reused while live", step, rid)
			}
			model[rid] = append([]byte(nil), rec...)
			keys = append(keys, rid)
		case op < 7: // update
			i := r.Intn(len(keys))
			rec := make([]byte, 1+r.Intn(600))
			r.Read(rec)
			nrid, err := rf.Update(keys[i], rec)
			if err != nil {
				t.Fatal(err)
			}
			delete(model, keys[i])
			if _, dup := model[nrid]; dup {
				t.Fatalf("step %d: update relocated onto live RID", step)
			}
			model[nrid] = append([]byte(nil), rec...)
			keys[i] = nrid
		case op < 9: // get
			i := r.Intn(len(keys))
			got, err := rf.Get(keys[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[keys[i]]) {
				t.Fatalf("step %d: Get(%v) mismatch", step, keys[i])
			}
		default: // delete
			i := r.Intn(len(keys))
			if err := rf.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
			delete(model, keys[i])
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	// Final integrity scan.
	count := 0
	err := rf.Iterate(func(rid RID, rec []byte) (bool, error) {
		want, ok := model[rid]
		if !ok {
			return false, fmt.Errorf("unexpected record at %v", rid)
		}
		if !bytes.Equal(rec, want) {
			return false, fmt.Errorf("content mismatch at %v", rid)
		}
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(model) {
		t.Fatalf("scan found %d records, model has %d", count, len(model))
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", bp.PinnedCount())
	}
}

func TestDoubleWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	fs, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Allocate()
	var p Page
	p.id = id
	p.SetType(TypeHeap)
	copy(p.Payload(), "good version")
	dw, err := OpenDoubleWriter(path + ".dw")
	if err != nil {
		t.Fatal(err)
	}
	// Stage the page, then simulate a torn in-place write: garbage at
	// the home position.
	if err := dw.Stage([]*Page{&p}); err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xAB}, PageSize)
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	f.WriteAt(garbage, int64(id)*PageSize)
	f.Close()

	restored, err := dw.Recover(fs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d pages, want 1", restored)
	}
	var q Page
	if err := fs.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Payload(), []byte("good version")) {
		t.Error("restored page has wrong content")
	}
	// A second recovery is a no-op.
	if n, err := dw.Recover(fs); err != nil || n != 0 {
		t.Errorf("second recover = %d, %v", n, err)
	}
	dw.Close()
	fs.Close()
}

func TestDoubleWriteSkipsIntactHome(t *testing.T) {
	fs := newTestFile(t)
	id, _ := fs.Allocate()
	var p Page
	p.id = id
	p.SetType(TypeHeap)
	copy(p.Payload(), "v2")
	dw, err := OpenDoubleWriter(filepath.Join(t.TempDir(), "dw"))
	if err != nil {
		t.Fatal(err)
	}
	defer dw.Close()
	if err := dw.Stage([]*Page{&p}); err != nil {
		t.Fatal(err)
	}
	// Complete the in-place write: home copy is intact and NEWER content
	// should not be clobbered by recovery.
	copy(p.Payload(), "v3")
	if err := fs.WritePage(&p); err != nil {
		t.Fatal(err)
	}
	if n, err := dw.Recover(fs); err != nil || n != 0 {
		t.Fatalf("recover = %d, %v (should skip intact home)", n, err)
	}
	var q Page
	if err := fs.ReadPage(id, &q); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Payload(), []byte("v3")) {
		t.Error("recovery clobbered an intact newer page")
	}
}
