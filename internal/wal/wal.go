// Package wal implements the write-ahead log of an Ode database.
//
// The logging discipline is deliberately simple and provably sound for
// this system's concurrency design:
//
//   - Transactions buffer their writes privately (no-steal): nothing an
//     uncommitted transaction does ever reaches the shared buffer pool,
//     so the log never needs undo information.
//   - At commit, the transaction's logical operations (object puts and
//     deletes, with after-images) are appended as one batch terminated
//     by a commit record, then fsynced (no-force for data pages).
//   - A checkpoint flushes every dirty page (atomically, via the
//     double-write buffer) and then truncates the log: everything in
//     the log is always "since the last checkpoint".
//   - Recovery therefore replays the whole log in order, applying the
//     operations of batches that have a commit record and ignoring a
//     torn tail. Replay is idempotent: operations are upserts/deletes
//     keyed by object id and version.
//
// The log also carries the replication position. Every committed batch
// has a log sequence number (LSN): batch n since database creation has
// LSN n, regardless of checkpoints. Because truncation discards the
// batches themselves, the truncated log starts with a base record
// (OpLSNBase) holding the LSN at truncation time and the database's
// replication id; the live LSN is always base + the number of commit
// records after it. Truncate installs the new base by writing a fresh
// file and renaming it over the log, so the base update and the
// truncation are one atomic filesystem operation — the LSN accounting
// survives a crash at any instant.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/failpoint"
	"ode/internal/obs"
)

// Failpoint sites on the log's I/O paths (no-ops unless armed; see
// docs/TESTING.md).
var (
	// fpAppend fires in AppendRaw after the batch buffer is built.
	// Partial actions persist a prefix of the batch — a torn log tail
	// that scanEnd must truncate on the next open.
	fpAppend = failpoint.New("wal.append")
	// fpFsync fires in SyncTo between the batch write and the fsync.
	// The batch bytes are already in the file, so a commit that fails
	// here may still be durable — the classic fsync-error ambiguity.
	// The log resolves the ambiguity by poisoning itself: after any
	// fsync failure every append and sync returns ErrWALPoisoned until
	// the log is reopened (see SyncTo).
	fpFsync = failpoint.New("wal.fsync")
	// fpTruncate fires at the top of Truncate (checkpoint log reset).
	fpTruncate = failpoint.New("wal.truncate")
	// fpReplay fires once per record during replay, failing recovery
	// midway.
	fpReplay = failpoint.New("wal.replay")
)

// OpType enumerates logical redo operations.
type OpType uint8

// The operation types. OpCommit terminates a transaction's batch; a
// batch without a trailing OpCommit is discarded at replay. OpLSNBase
// is log metadata, not a redo operation: the first record of a
// truncated log, carrying the base LSN (in the TxID field) and the
// replication id (in the Image field).
const (
	OpInvalid       OpType = iota
	OpPut                  // set the current image of an object
	OpPutVersion           // store a frozen version image
	OpDelete               // remove an object and all its versions
	OpDeleteVersion        // remove one frozen version
	OpCommit
	OpLSNBase
	// OpPrepare terminates a prepared (in-doubt) two-phase-commit batch:
	// the preceding records for its TxID are the transaction's redo ops,
	// durable but not yet decided. Image holds the global transaction id.
	// Prepared batches do not advance the LSN and are never replayed as
	// committed state; recovery surfaces them via ReplayPrepared.
	OpPrepare
	// OpDecide is a coordinator's 2PC decision record: Image holds the
	// global transaction id, Version is 1 for commit and 0 for abort. A
	// decide-commit is always followed (in the same sync) by the ordinary
	// committed batch re-encoding of the prepared ops, which is what
	// replay and replication actually apply.
	OpDecide
)

func (t OpType) String() string {
	switch t {
	case OpPut:
		return "put"
	case OpPutVersion:
		return "put-version"
	case OpDelete:
		return "delete"
	case OpDeleteVersion:
		return "delete-version"
	case OpCommit:
		return "commit"
	case OpLSNBase:
		return "lsn-base"
	case OpPrepare:
		return "prepare"
	case OpDecide:
		return "decide"
	}
	return "invalid"
}

// Op is one logical redo operation.
type Op struct {
	Type    OpType
	TxID    uint64
	OID     uint64
	Version uint32 // current version for OpPut; frozen version for OpPutVersion/OpDeleteVersion
	ClassID uint32
	Image   []byte // serialized object state for the put ops
}

// Record framing on disk:
//
//	[0:4)  payload length
//	[4:8)  CRC32C of payload
//	[8:..) payload
//
// Payload: type(1) txid(8) oid(8) version(4) classid(4) image bytes.
const (
	frameHeader  = 8
	payloadFixed = 1 + 8 + 8 + 4 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a malformed (non-torn-tail) log.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrLSNGap reports a replicated batch whose LSN does not directly
// follow the log's current LSN: the replica missed batches (the
// primary truncated past its position) and must resynchronize.
var ErrLSNGap = errors.New("wal: LSN gap")

// ErrWALPoisoned reports a log whose durability state is unknown: an
// fsync failed, so batches already written may or may not be on disk,
// and the kernel may have silently dropped the dirty pages (a retried
// fsync can report success without the data being durable). Every
// subsequent append, sync, and truncate fails with this error; the
// only recovery is closing the database and reopening it, which
// re-scans the file and replays whatever actually persisted.
var ErrWALPoisoned = errors.New("wal: poisoned by failed fsync (reopen to recover)")

// Log is an append-only write-ahead log file. StageRaw (appending) and
// Truncate are serialized by the caller (the engine's commit lock);
// SyncTo may run concurrently with anything — the group-commit state
// under gcMu coordinates it. end and lsn are atomic only so Size and
// LSN can be polled concurrently by the WAL-bound governor and the
// replication layer.
type Log struct {
	f         *os.File
	path      string
	end       atomic.Int64 // append position (after the last valid record)
	lsn       atomic.Uint64
	base      uint64       // LSN recorded by the base record (mutated only under the commit lock)
	dataStart atomic.Int64 // offset of the first batch record (after any base record)
	sync      bool         // fsync on commit (disabled only for benchmarks)
	met       *obs.WALMetrics

	idMu   sync.Mutex
	replID string

	// Group-commit state. staged/durable are cumulative byte counts
	// since Open (never reset by Truncate, so a SyncTo target stays
	// valid across a concurrent checkpoint): staged counts bytes fully
	// written by StageRaw, durable counts bytes known safe — covered by
	// an fsync, or superseded by a checkpoint's page flush (Truncate).
	gcMu     sync.Mutex
	gcCond   *sync.Cond
	staged   int64
	durable  int64
	pendingN uint64 // commits staged since the last fsync snapshot
	syncing  bool   // a leader's fsync is in flight
	poison   error  // first fsync failure; terminal until reopen
}

// Open opens (creating if absent) the log at path. The log is scanned
// to find the end of the valid prefix; a torn tail is truncated away.
// The scan also recovers the replication position: base record plus
// one LSN per intact commit record.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, sync: true, met: &obs.WALMetrics{}}
	l.gcCond = sync.NewCond(&l.gcMu)
	end, commits, err := l.scanEnd()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.end.Store(end)
	l.lsn.Store(l.base + commits)
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return l, nil
}

// SetSync controls whether commits fsync. Disabling it surrenders
// durability of recent commits on power failure; it exists for
// benchmarking the fsync cost (and matches "group commit off").
func (l *Log) SetSync(sync bool) { l.sync = sync }

// SetMetrics attaches the WAL metric set; m must be non-nil.
func (l *Log) SetMetrics(m *obs.WALMetrics) { l.met = m }

// scanEnd walks the record frames and returns the offset after the
// last intact record plus the number of intact commit records. A base
// record at offset zero sets l.base, l.replID, and l.dataStart as a
// side effect.
func (l *Log) scanEnd() (int64, uint64, error) {
	var off int64
	var commits uint64
	var hdr [frameHeader]byte
	for {
		_, err := l.f.ReadAt(hdr[:], off)
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return off, commits, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wal: scan: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n < payloadFixed || n > 1<<30 {
			return off, commits, nil // torn or garbage tail
		}
		buf := make([]byte, n)
		if _, err := l.f.ReadAt(buf, off+frameHeader); err != nil {
			return off, commits, nil // torn tail
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return off, commits, nil // torn tail
		}
		switch OpType(buf[0]) {
		case OpCommit:
			commits++
		case OpLSNBase:
			if off == 0 {
				l.base = binary.LittleEndian.Uint64(buf[1:])
				l.replID = string(buf[payloadFixed:])
				l.dataStart.Store(frameHeader + int64(n))
			}
		}
		off += frameHeader + int64(n)
	}
}

// Batch is one committed transaction's worth of redo operations
// together with its exact on-disk encoding — the unit of replication
// shipping and of replay.
type Batch struct {
	TxID uint64
	Ops  []*Op
	Raw  []byte
}

// EncodeBatch builds the on-disk (and on-wire) encoding of one
// committed batch: each op as a record, terminated by a commit record
// for txid.
func EncodeBatch(txid uint64, ops []Op) []byte {
	buf := make([]byte, 0, 256)
	for i := range ops {
		op := ops[i]
		op.TxID = txid
		buf = appendRecord(buf, &op)
	}
	return appendRecord(buf, &Op{Type: OpCommit, TxID: txid})
}

// DecodeBatch parses and CRC-validates one encoded batch: a run of
// operation records for a single transaction terminated by exactly one
// commit record.
func DecodeBatch(raw []byte) (*Batch, error) {
	b := &Batch{Raw: raw}
	var off int
	for off < len(raw) {
		if len(raw)-off < frameHeader {
			return nil, fmt.Errorf("%w: truncated batch frame", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if n < payloadFixed || len(raw)-off-frameHeader < n {
			return nil, fmt.Errorf("%w: truncated batch record", ErrCorrupt)
		}
		payload := raw[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, fmt.Errorf("%w: batch checksum mismatch", ErrCorrupt)
		}
		op, err := decodeOp(payload)
		if err != nil {
			return nil, err
		}
		off += frameHeader + n
		if op.Type == OpCommit {
			if off != len(raw) {
				return nil, fmt.Errorf("%w: data after commit record", ErrCorrupt)
			}
			b.TxID = op.TxID
			for _, p := range b.Ops {
				if p.TxID != op.TxID {
					return nil, fmt.Errorf("%w: mixed transactions in batch", ErrCorrupt)
				}
			}
			return b, nil
		}
		if op.Type == OpLSNBase || op.Type == OpPrepare || op.Type == OpDecide {
			return nil, fmt.Errorf("%w: metadata record inside batch", ErrCorrupt)
		}
		b.Ops = append(b.Ops, op)
	}
	return nil, fmt.Errorf("%w: batch lacks commit record", ErrCorrupt)
}

// Append encodes the operations as one committed batch for txid and
// appends it. This and AppendRaw are the only writing entry points:
// the log never contains uncommitted operations.
func (l *Log) Append(txid uint64, ops []Op) error {
	return l.AppendRaw(EncodeBatch(txid, ops))
}

// AppendRaw appends one pre-encoded committed batch (exactly one
// commit record, as produced by EncodeBatch) and, when sync is
// enabled, fsyncs before returning. Equivalent to StageRaw + SyncTo;
// the group-commit fast path calls the two halves separately so the
// commit lock is released between them.
func (l *Log) AppendRaw(raw []byte) error {
	target, err := l.StageRaw(raw)
	if err != nil {
		return err
	}
	return l.SyncTo(target)
}

// StageRaw writes one pre-encoded committed batch into the file and
// advances the LSN, without waiting for durability. It returns a sync
// target for SyncTo: once SyncTo(target) succeeds, every byte this
// call wrote is durable. The caller must hold the commit lock; the LSN
// advances once the batch bytes are fully written — before any fsync,
// matching what scanEnd would count after a crash.
func (l *Log) StageRaw(raw []byte) (target int64, err error) {
	l.gcMu.Lock()
	if l.poison != nil {
		defer l.gcMu.Unlock()
		return 0, l.poisonErrLocked()
	}
	l.gcMu.Unlock()
	end := l.end.Load()
	if k, ferr := fpAppend.CheckIO(len(raw)); ferr != nil {
		// Simulated crash mid-append: a prefix of the batch lands on
		// disk as a torn tail. l.end is not advanced — on a real crash
		// the in-memory Log is gone anyway, and the next Open truncates
		// the tail.
		if k > 0 {
			l.f.WriteAt(raw[:k], end)
		}
		return 0, fmt.Errorf("wal: append: %w", ferr)
	}
	if _, err := l.f.WriteAt(raw, end); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.end.Store(end + int64(len(raw)))
	l.lsn.Add(1)
	l.met.Appends.Inc()
	l.met.AppendBytes.Add(uint64(len(raw)))
	l.gcMu.Lock()
	l.staged += int64(len(raw))
	l.pendingN++
	target = l.staged
	l.gcMu.Unlock()
	return target, nil
}

// StageMeta writes pre-encoded metadata records (a prepared batch, a
// 2PC decision) into the file WITHOUT advancing the LSN: scanEnd counts
// only commit records, so the replication position is untouched — which
// is exactly why prepared batches must be staged here and not through
// StageRaw. Returns a SyncTo target like StageRaw. The caller must hold
// the commit lock.
func (l *Log) StageMeta(raw []byte) (target int64, err error) {
	l.gcMu.Lock()
	if l.poison != nil {
		defer l.gcMu.Unlock()
		return 0, l.poisonErrLocked()
	}
	l.gcMu.Unlock()
	end := l.end.Load()
	if k, ferr := fpAppend.CheckIO(len(raw)); ferr != nil {
		if k > 0 {
			l.f.WriteAt(raw[:k], end)
		}
		return 0, fmt.Errorf("wal: append: %w", ferr)
	}
	if _, err := l.f.WriteAt(raw, end); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.end.Store(end + int64(len(raw)))
	l.met.Appends.Inc()
	l.met.AppendBytes.Add(uint64(len(raw)))
	l.gcMu.Lock()
	l.staged += int64(len(raw))
	target = l.staged
	l.gcMu.Unlock()
	return target, nil
}

// SyncTo blocks until every byte staged at or before target is
// durable, sharing fsyncs between concurrent committers (group
// commit): the first waiter that finds no fsync in flight becomes the
// leader, snapshots the staged high-water mark, and issues one
// whole-file fsync that covers every follower staged before the
// snapshot. Followers just wait. A no-op when sync is disabled.
//
// On fsync failure the log is poisoned: the batch bytes of every
// transaction in the group are in the file but their durability is
// unknown, so no waiter is acked and every subsequent operation fails
// with ErrWALPoisoned (wrapping the original fsync error) until the
// log is reopened. A commit whose fsync failed is therefore never
// reported successful — it resolves after recovery, from whatever the
// file actually holds.
func (l *Log) SyncTo(target int64) error {
	if !l.sync {
		return nil
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	for {
		if l.poison != nil {
			return l.poisonErrLocked()
		}
		if l.durable >= target {
			return nil
		}
		if !l.syncing {
			break // become the leader
		}
		l.gcCond.Wait() // follow the in-flight fsync
	}
	l.syncing = true
	snap := l.staged
	n := l.pendingN
	l.pendingN = 0
	l.gcMu.Unlock()
	// The fsync covers every byte written before the snapshot: StageRaw
	// completes its WriteAt before counting the bytes into staged.
	var err error
	if err = fpFsync.Check(); err == nil {
		start := time.Now()
		if err = l.f.Sync(); err == nil {
			l.met.Fsyncs.Inc()
			l.met.FsyncNS.Since(start)
		}
	}
	l.gcMu.Lock()
	l.syncing = false
	if err != nil {
		l.poison = fmt.Errorf("wal: sync: %w", err)
		l.gcCond.Broadcast()
		return l.poisonErrLocked()
	}
	if snap > l.durable {
		l.durable = snap
	}
	l.met.GroupCommits.Inc()
	l.met.GroupCommitSize.Add(n)
	l.gcCond.Broadcast()
	return nil
}

// SyncAll makes every batch staged so far durable (a no-op when sync
// is disabled). The replication source uses it before advertising a
// position to a new subscriber.
func (l *Log) SyncAll() error {
	l.gcMu.Lock()
	target := l.staged
	l.gcMu.Unlock()
	return l.SyncTo(target)
}

// poisonErrLocked wraps the stored fsync failure so callers can match
// both ErrWALPoisoned and the root cause. Callers hold gcMu.
func (l *Log) poisonErrLocked() error {
	return fmt.Errorf("%w: %w", ErrWALPoisoned, l.poison)
}

func appendRecord(buf []byte, op *Op) []byte {
	plen := payloadFixed + len(op.Image)
	var hdr [frameHeader]byte
	payload := make([]byte, plen)
	payload[0] = byte(op.Type)
	binary.LittleEndian.PutUint64(payload[1:], op.TxID)
	binary.LittleEndian.PutUint64(payload[9:], op.OID)
	binary.LittleEndian.PutUint32(payload[17:], op.Version)
	binary.LittleEndian.PutUint32(payload[21:], op.ClassID)
	copy(payload[payloadFixed:], op.Image)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(plen))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Replay feeds every operation of every committed batch, in log order,
// to fn. Batches lacking a commit record (a crash between WriteAt and
// the full batch landing) are skipped.
func (l *Log) Replay(fn func(op *Op) error) error {
	return l.ReplayBatches(func(_ uint64, b *Batch) error {
		for _, op := range b.Ops {
			if err := fn(op); err != nil {
				return err
			}
		}
		return nil
	})
}

type pendingBatch struct {
	ops []*Op
	raw []byte
}

// ReplayBatches feeds every committed batch, in commit order and with
// its LSN, to fn. The Raw bytes handed to fn are rebuilt per batch and
// safe to retain. Callers must hold the commit lock (or otherwise
// exclude Truncate) if the log is live.
func (l *Log) ReplayBatches(fn func(lsn uint64, b *Batch) error) error {
	var off int64
	lsn := l.base
	pending := make(map[uint64]*pendingBatch)
	var hdr [frameHeader]byte
	for off < l.end.Load() {
		if err := fpReplay.Check(); err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if _, err := l.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("wal: replay read: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		buf := make([]byte, n)
		if _, err := l.f.ReadAt(buf, off+frameHeader); err != nil {
			return fmt.Errorf("wal: replay read payload: %w", err)
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		op, err := decodeOp(buf)
		if err != nil {
			return err
		}
		off += frameHeader + int64(n)
		if op.Type == OpLSNBase || op.Type == OpDecide {
			continue
		}
		if op.Type == OpPrepare {
			// The preceding records for this TxID are a prepared (in-doubt)
			// batch, not a committed one: they must never reach committed
			// replay or the replication announce stream. A decide-commit
			// re-logs them as an ordinary batch, which replays normally.
			delete(pending, op.TxID)
			continue
		}
		p := pending[op.TxID]
		if p == nil {
			p = &pendingBatch{}
			pending[op.TxID] = p
		}
		p.raw = append(p.raw, hdr[:]...)
		p.raw = append(p.raw, buf...)
		if op.Type != OpCommit {
			p.ops = append(p.ops, op)
			continue
		}
		delete(pending, op.TxID)
		lsn++
		if err := fn(lsn, &Batch{TxID: op.TxID, Ops: p.ops, Raw: p.raw}); err != nil {
			return err
		}
	}
	return nil
}

// EncodePrepared builds the on-disk encoding of one prepared (in-doubt)
// batch: each op as a record, terminated by a prepare record carrying
// the global transaction id. Staged via StageMeta — never StageRaw —
// because prepared batches must not advance the LSN.
func EncodePrepared(txid uint64, gid string, ops []Op) []byte {
	buf := make([]byte, 0, 256)
	for i := range ops {
		op := ops[i]
		op.TxID = txid
		buf = appendRecord(buf, &op)
	}
	return appendRecord(buf, &Op{Type: OpPrepare, TxID: txid, Image: []byte(gid)})
}

// EncodeDecide builds a 2PC decision record for gid: commit when commit
// is true, abort otherwise.
func EncodeDecide(txid uint64, gid string, commit bool) []byte {
	var v uint32
	if commit {
		v = 1
	}
	return appendRecord(nil, &Op{Type: OpDecide, TxID: txid, Version: v, Image: []byte(gid)})
}

// Prepared is one in-doubt transaction recovered from the log: its redo
// operations are durable behind a prepare record but no decision has
// been logged. The coordinator's decision (or a presumed abort) resolves
// it.
type Prepared struct {
	GID  string
	TxID uint64
	Ops  []*Op
}

// ReplayPrepared scans the log for two-phase-commit state: it returns
// the still-undecided prepared transactions in log order, plus every
// decision record seen (gid -> committed). A prepared transaction whose
// gid has a decision is resolved — a decide-commit staged the ordinary
// committed batch alongside it (which ReplayBatches applies), and a
// decide-abort simply discards it. Callers must hold the commit lock
// (or otherwise exclude Truncate) if the log is live.
func (l *Log) ReplayPrepared() ([]*Prepared, map[string]bool, error) {
	var off int64
	pending := make(map[uint64][]*Op)
	var order []*Prepared
	decisions := make(map[string]bool)
	var hdr [frameHeader]byte
	for off < l.end.Load() {
		if _, err := l.f.ReadAt(hdr[:], off); err != nil {
			return nil, nil, fmt.Errorf("wal: replay read: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		buf := make([]byte, n)
		if _, err := l.f.ReadAt(buf, off+frameHeader); err != nil {
			return nil, nil, fmt.Errorf("wal: replay read payload: %w", err)
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return nil, nil, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		op, err := decodeOp(buf)
		if err != nil {
			return nil, nil, err
		}
		off += frameHeader + int64(n)
		switch op.Type {
		case OpLSNBase:
		case OpPrepare:
			order = append(order, &Prepared{GID: string(op.Image), TxID: op.TxID, Ops: pending[op.TxID]})
			delete(pending, op.TxID)
		case OpDecide:
			decisions[string(op.Image)] = op.Version == 1
		case OpCommit:
			delete(pending, op.TxID)
		default:
			pending[op.TxID] = append(pending[op.TxID], op)
		}
	}
	out := order[:0]
	for _, p := range order {
		if _, decided := decisions[p.GID]; !decided {
			out = append(out, p)
		}
	}
	return out, decisions, nil
}

func decodeOp(buf []byte) (*Op, error) {
	if len(buf) < payloadFixed {
		return nil, ErrCorrupt
	}
	op := &Op{
		Type:    OpType(buf[0]),
		TxID:    binary.LittleEndian.Uint64(buf[1:]),
		OID:     binary.LittleEndian.Uint64(buf[9:]),
		Version: binary.LittleEndian.Uint32(buf[17:]),
		ClassID: binary.LittleEndian.Uint32(buf[21:]),
	}
	if op.Type == OpInvalid || op.Type > OpDecide {
		return nil, fmt.Errorf("%w: bad op type %d", ErrCorrupt, buf[0])
	}
	if len(buf) > payloadFixed {
		op.Image = append([]byte(nil), buf[payloadFixed:]...)
	}
	return op, nil
}

// Truncate empties the log, preserving the replication position: a
// fresh file holding only a base record (current LSN + replication id)
// is renamed over the log, so the truncation and the base update are
// one atomic operation. Called after a checkpoint has made every
// logged effect durable in the data file.
//
// Truncate holds the group-commit lock for its whole body: it first
// waits out any in-flight leader fsync (which targets the file being
// swapped away), and no new leader can start one until the swap is
// complete. It refuses to run on a poisoned log — the failed group's
// effects are applied in memory, and checkpointing would persist them
// even though their commits were reported failed. On success the
// durable mark jumps to the staged mark: the checkpoint's page flush
// made every applied batch durable through the data file.
func (l *Log) Truncate() error {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	for l.syncing {
		l.gcCond.Wait()
	}
	if l.poison != nil {
		return l.poisonErrLocked()
	}
	if err := fpTruncate.Check(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.idMu.Lock()
	replID := l.replID
	l.idMu.Unlock()
	lsn := l.lsn.Load()
	rec := appendRecord(nil, &Op{Type: OpLSNBase, TxID: lsn, Image: []byte(replID)})
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := f.WriteAt(rec, 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if d, err := os.Open(filepath.Dir(l.path)); err == nil {
		d.Sync() // best-effort: make the rename itself durable
		d.Close()
	}
	old := l.f
	l.f = f
	old.Close()
	l.base = lsn
	l.dataStart.Store(int64(len(rec)))
	l.end.Store(int64(len(rec)))
	l.durable = l.staged // every applied batch is durable via the data file
	l.pendingN = 0
	l.gcCond.Broadcast()
	return nil
}

// LSN returns the log sequence number of the last committed batch
// (safe to poll concurrently with appends).
func (l *Log) LSN() uint64 { return l.lsn.Load() }

// BaseLSN returns the LSN at the last truncation: batches with LSN in
// (BaseLSN, LSN] are present in the file. Callers must hold the commit
// lock if the log is live.
func (l *Log) BaseLSN() uint64 { return l.base }

// ForceLSN overrides the live LSN. Used only when a replica finishes a
// full resync: its object state now equals the primary's at the given
// LSN, whatever its local log counted before. Callers must hold the
// commit lock.
func (l *Log) ForceLSN(lsn uint64) { l.lsn.Store(lsn) }

// ReplID returns the replication id persisted in the base record, or
// "" if the log has never been truncated with one.
func (l *Log) ReplID() string {
	l.idMu.Lock()
	defer l.idMu.Unlock()
	return l.replID
}

// SetReplID sets the replication id; it is persisted by the next
// Truncate.
func (l *Log) SetReplID(id string) {
	l.idMu.Lock()
	l.replID = id
	l.idMu.Unlock()
}

// Size returns the length of the batch data in bytes — the replayable
// backlog since the last truncation, excluding the base record (safe
// to poll concurrently with appends).
func (l *Log) Size() int64 { return l.end.Load() - l.dataStart.Load() }

// Empty reports whether the log holds no committed batches (a base
// record alone still counts as empty).
func (l *Log) Empty() bool { return l.end.Load() == l.dataStart.Load() }

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }
