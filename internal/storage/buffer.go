package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"ode/internal/obs"
)

// FlushLSNFunc is the WAL hook: before a dirty page with page-LSN n is
// written back, the buffer pool calls the hook to ensure the log is
// durable up to n (the write-ahead rule).
type FlushLSNFunc func(lsn uint64) error

// Pool is the buffer pool: a fixed set of frames caching pages, with
// LRU replacement over unpinned frames and write-back of dirty pages.
//
// The pool is lock-striped: frames live in shards keyed by PageID, each
// with its own mutex, frame map, and LRU list, so concurrent readers of
// distinct pages do not serialize on one mutex. Sequential page ids
// round-robin across shards, which spreads extent scans evenly. Small
// pools (fewer than 2*minShardFrames frames) collapse to a single shard
// and behave exactly like the classic one-mutex pool, so capacity-edge
// semantics (ErrPoolFull when every frame of a shard is pinned) only
// loosen when the pool is large enough that it cannot matter.
type Pool struct {
	fs       *FileStore
	dw       *DoubleWriter // optional: atomic in-place page writes
	flushLSN FlushLSNFunc

	shards []poolShard
	mask   uint32 // len(shards)-1; shard count is a power of two

	// met/smet are never nil: NewPool installs unregistered zero sets
	// and SetMetrics swaps in the DB-wide ones. All counters are
	// atomics shared by every shard, so per-shard activity rolls up
	// into one PoolMetrics set and Stats readers never race writers.
	met  *obs.PoolMetrics
	smet *obs.StorageMetrics
}

type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*frame
	lru    *list.List // of *frame; front = most recently used
	cap    int
}

type frame struct {
	page  Page
	pins  int
	dirty bool
	elem  *list.Element
}

// ErrPoolFull is returned when every frame is pinned.
var ErrPoolFull = errors.New("storage: buffer pool exhausted (all frames pinned)")

// Shard sizing: never split below minShardFrames frames per shard (tiny
// pools keep exact single-mutex semantics), never beyond maxPoolShards.
const (
	maxPoolShards  = 16
	minShardFrames = 64
)

func poolShardCount(capacity int) int {
	n := 1
	for n < maxPoolShards && capacity/(n*2) >= minShardFrames {
		n *= 2
	}
	return n
}

// NewPool creates a pool of capacity frames over fs. flushLSN may be nil
// when no WAL is attached, and dw may be nil to write pages in place
// without torn-page protection (e.g. unit tests).
func NewPool(fs *FileStore, capacity int, dw *DoubleWriter, flushLSN FlushLSNFunc) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	n := poolShardCount(capacity)
	bp := &Pool{
		fs:       fs,
		dw:       dw,
		flushLSN: flushLSN,
		shards:   make([]poolShard, n),
		mask:     uint32(n - 1),
		met:      &obs.PoolMetrics{},
		smet:     &obs.StorageMetrics{},
	}
	base, rem := capacity/n, capacity%n
	for i := range bp.shards {
		c := base
		if i < rem {
			c++
		}
		bp.shards[i] = poolShard{
			frames: make(map[PageID]*frame, c),
			lru:    list.New(),
			cap:    c,
		}
	}
	bp.met.Shards.Set(int64(n))
	return bp
}

// shard maps a page id to its shard.
func (bp *Pool) shard(id PageID) *poolShard {
	return &bp.shards[uint32(id)&bp.mask]
}

// ShardCount reports how many lock stripes the pool uses.
func (bp *Pool) ShardCount() int { return len(bp.shards) }

// SetMetrics attaches the pool and storage metric sets. Call before
// serving traffic; both must be non-nil.
func (bp *Pool) SetMetrics(pm *obs.PoolMetrics, sm *obs.StorageMetrics) {
	bp.met = pm
	bp.smet = sm
	pm.Shards.Set(int64(len(bp.shards)))
}

// Stats returns (hits, misses, evictions).
func (bp *Pool) Stats() (hits, misses, evictions uint64) {
	return bp.met.Hits.Load(), bp.met.Misses.Load(), bp.met.Evictions.Load()
}

// Fetch pins page id and returns it. The caller must Unpin it exactly
// once, passing dirty=true if it modified the page.
func (bp *Pool) Fetch(id PageID) (*Page, error) {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr, ok := s.frames[id]; ok {
		fr.pins++
		s.lru.MoveToFront(fr.elem)
		bp.met.Hits.Inc()
		bp.met.Pins.Inc()
		bp.met.Pinned.Add(1)
		return &fr.page, nil
	}
	bp.met.Misses.Inc()
	fr, err := bp.victim(s)
	if err != nil {
		return nil, err
	}
	if err := bp.fs.ReadPage(id, &fr.page); err != nil {
		return nil, err
	}
	bp.smet.PageReads.Inc()
	s.install(bp, id, fr)
	return &fr.page, nil
}

// NewPage allocates a fresh page, pins it, and returns it zeroed. The
// caller must Unpin with dirty=true.
func (bp *Pool) NewPage() (*Page, error) {
	id, err := bp.fs.Allocate()
	if err != nil {
		return nil, err
	}
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := bp.victim(s)
	if err != nil {
		return nil, err
	}
	fr.page.reset()
	fr.page.id = id
	fr.dirty = true
	s.install(bp, id, fr)
	return &fr.page, nil
}

// victim returns a free frame, evicting if the shard is at capacity:
// the least recently used clean unpinned page, or — only when the shard
// has none — the least recently used dirty one, written back first. So
// a reader never pays a write (and its double-write fsync) for a page
// some other transaction dirtied while a clean page could go instead;
// dirty pages leave at checkpoints, or under real write pressure.
// Caller holds s.mu.
func (bp *Pool) victim(s *poolShard) (*frame, error) {
	if len(s.frames) < s.cap {
		return &frame{pins: 0}, nil
	}
	var dirty *list.Element
	for e := s.lru.Back(); e != nil; e = e.Prev() {
		fr := e.Value.(*frame)
		if fr.pins > 0 {
			continue
		}
		if !fr.dirty {
			return bp.evict(s, e), nil
		}
		if dirty == nil {
			dirty = e
		}
	}
	if dirty == nil {
		return nil, ErrPoolFull
	}
	if err := bp.writeBack(dirty.Value.(*frame)); err != nil {
		return nil, err
	}
	return bp.evict(s, dirty), nil
}

// evict drops an unpinned, clean frame from the shard and returns it
// for reuse. Caller holds s.mu.
func (bp *Pool) evict(s *poolShard, e *list.Element) *frame {
	fr := e.Value.(*frame)
	delete(s.frames, fr.page.id)
	s.lru.Remove(e)
	fr.elem = nil
	bp.met.Evictions.Inc()
	return fr
}

// install registers the frame in the shard's map and LRU. Caller holds
// s.mu.
func (s *poolShard) install(bp *Pool, id PageID, fr *frame) {
	fr.pins = 1
	fr.elem = s.lru.PushFront(fr)
	s.frames[id] = fr
	bp.met.Pins.Inc()
	bp.met.Pinned.Add(1)
}

// Unpin releases one pin; dirty records that the caller changed the
// page.
func (bp *Pool) Unpin(id PageID, dirty bool) {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.frames[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin of unpinned page %d", id))
	}
	fr.pins--
	bp.met.Pinned.Add(-1)
	if dirty {
		fr.dirty = true
	}
}

// writeBack flushes one dirty frame, honoring the WAL rule and staging
// the page in the double-write buffer when one is attached. Caller
// holds the owning shard's mutex; evictions in other shards may write
// back concurrently, which the double writer serializes internally.
func (bp *Pool) writeBack(fr *frame) error {
	if err := fpPoolEvict.Check(); err != nil {
		return err
	}
	if bp.flushLSN != nil {
		if err := bp.flushLSN(fr.page.LSN()); err != nil {
			return err
		}
	}
	if bp.dw != nil {
		if err := bp.dw.Stage([]*Page{&fr.page}); err != nil {
			return err
		}
		bp.smet.DWFlushes.Inc()
	}
	if err := bp.fs.WritePage(&fr.page); err != nil {
		return err
	}
	bp.smet.PageWrites.Inc()
	fr.dirty = false
	return nil
}

// lockAll acquires every shard mutex in index order (the only place two
// shard locks are ever held together, so the order cannot deadlock).
func (bp *Pool) lockAll() {
	for i := range bp.shards {
		bp.shards[i].mu.Lock()
	}
}

func (bp *Pool) unlockAll() {
	for i := range bp.shards {
		bp.shards[i].mu.Unlock()
	}
}

// FlushAll writes back every dirty page (pinned or not) and syncs the
// file; the whole batch is staged in the double-write buffer first so a
// crash mid-flush tears no page. Used at checkpoints and on close.
func (bp *Pool) FlushAll() error {
	bp.lockAll()
	defer bp.unlockAll()
	var dirty []*frame
	var maxLSN uint64
	for i := range bp.shards {
		for _, fr := range bp.shards[i].frames {
			if fr.dirty {
				dirty = append(dirty, fr)
				if l := fr.page.LSN(); l > maxLSN {
					maxLSN = l
				}
			}
		}
	}
	if len(dirty) == 0 {
		return bp.fs.Sync()
	}
	if bp.flushLSN != nil {
		if err := bp.flushLSN(maxLSN); err != nil {
			return err
		}
	}
	if bp.dw != nil {
		// Stage in bounded batches.
		for i := 0; i < len(dirty); i += dwMaxBatch {
			end := i + dwMaxBatch
			if end > len(dirty) {
				end = len(dirty)
			}
			batch := make([]*Page, 0, end-i)
			for _, fr := range dirty[i:end] {
				batch = append(batch, &fr.page)
			}
			if err := bp.dw.Stage(batch); err != nil {
				return err
			}
			bp.smet.DWFlushes.Inc()
			for _, fr := range dirty[i:end] {
				if err := bp.fs.WritePage(&fr.page); err != nil {
					return err
				}
				bp.smet.PageWrites.Inc()
				fr.dirty = false
			}
			if err := bp.fs.Sync(); err != nil {
				return err
			}
			if err := bp.dw.Clear(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, fr := range dirty {
		if err := bp.fs.WritePage(&fr.page); err != nil {
			return err
		}
		bp.smet.PageWrites.Inc()
		fr.dirty = false
	}
	return bp.fs.Sync()
}

// FreePage drops the page from the pool (it must be unpinned) and
// returns it to the file's free list.
func (bp *Pool) FreePage(id PageID) error {
	s := bp.shard(id)
	s.mu.Lock()
	if fr, ok := s.frames[id]; ok {
		if fr.pins > 0 {
			s.mu.Unlock()
			return fmt.Errorf("storage: FreePage(%d) while pinned", id)
		}
		delete(s.frames, id)
		s.lru.Remove(fr.elem)
	}
	s.mu.Unlock()
	return bp.fs.Free(id)
}

// PinnedCount reports how many frames are currently pinned (test and
// leak-check helper).
func (bp *Pool) PinnedCount() int {
	n := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
