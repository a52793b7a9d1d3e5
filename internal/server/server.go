// Package server is the network front end of an Ode database: a TCP
// listener speaking the internal/wire protocol, one goroutine and one
// session per connection, a bounded session table that sheds overload
// with typed wire errors, and a graceful drain on shutdown that mirrors
// DB.Close semantics (active transactions get a window, then their
// contexts are canceled).
//
// A connection owns at most one transaction at a time (as an embedded
// Tx is owned by one goroutine); concurrency comes from connections.
// Client transaction deadlines arrive with CmdBegin and are mapped
// onto DB.BeginCtx, so admission control, lock-wait deadlines, and
// scan-boundary cancellation all behave exactly as they do embedded —
// the typed rejections travel back as wire error codes.
//
// docs/SERVER.md describes the deployment surface and failure
// semantics; docs/OBSERVABILITY.md documents the server.* metrics.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/oql"
	"ode/internal/query"
	"ode/internal/repl"
	"ode/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxConns bounds the session table (default 256). Connections
	// beyond the bound complete the handshake and are then shed with a
	// typed ErrOverloaded wire error, so a flooded server degrades to
	// fast rejection, mirroring transaction admission control.
	MaxConns int
	// MaxDeadline clamps client-requested transaction deadlines; 0
	// leaves them unclamped. A client that requests none gets
	// MaxDeadline when set (every served transaction then has a bound).
	MaxDeadline time.Duration
	// DrainTimeout bounds Close's graceful drain (default 5s): active
	// connections get this long to finish their in-flight request and
	// transaction, then their contexts are canceled and sockets closed.
	DrainTimeout time.Duration
	// Registry receives the server.* metrics (default: the database's
	// MetricsRegistry). A second Server over the same database must
	// supply its own registry — metric names register once.
	Registry *obs.Registry
	// Repl, when set, serves CmdWALSubscribe streams: replicas of this
	// database subscribe here. Without it, subscription requests are
	// rejected as protocol errors.
	Repl *repl.Source
	// CommitAckQuorum, when > 0 with Repl set, makes commits
	// semi-synchronous: the RespOK for a commit waits until that many
	// subscribed replicas have acknowledged applying its LSN. With a
	// quorum of the group acking every commit, a failover election that
	// requires the same quorum reachable provably includes a node
	// holding every acknowledged write.
	CommitAckQuorum int
	// AckTimeout bounds the semi-synchronous ack wait (default 2s).
	// On expiry the commit is durable locally but unacknowledged; the
	// client gets a retryable ErrTxTimeout-wrapped error and must treat
	// the outcome as ambiguous (see docs/REPLICATION.md).
	AckTimeout time.Duration
	// Advertise is the address peers reach this node at, reported in
	// repl-status as the node's stable election identity (monitors rank
	// tie-broken candidates by it, so it must be configured identically
	// across restarts). Empty is fine for single-node serving.
	Advertise string
	// Promote, when set, handles CmdPromote (the remote form of
	// SIGUSR1 on ode-server): it should detach the node from its
	// primary and open it for writes. Without it, promote requests are
	// rejected as protocol errors.
	Promote func() error
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 256
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 5 * time.Second
	}
	if out.AckTimeout <= 0 {
		out.AckTimeout = 2 * time.Second
	}
	return out
}

// Server serves one database over TCP.
type Server struct {
	db   *ode.DB
	opts Options
	met  *Metrics
	reg  *obs.Registry

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	closing atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	// oqlMu serializes remote O++ execution across connections: class
	// declarations mutate the shared schema, and the shell path is
	// interactive, so a server-wide critical section is the simple,
	// safe choice.
	oqlMu sync.Mutex
}

// New builds a server over an open database and registers the server.*
// metrics (into the database's registry unless Options.Registry
// overrides it).
func New(db *ode.DB, opts *Options) *Server {
	o := opts.withDefaults()
	reg := o.Registry
	if reg == nil {
		reg = db.MetricsRegistry()
	}
	s := &Server{
		db:    db,
		opts:  o,
		met:   &Metrics{},
		reg:   reg,
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	s.met.Attach(reg)
	return s
}

// Metrics exposes the live server metric set.
func (s *Server) Metrics() *Metrics { return s.met }

// DB returns the served database.
func (s *Server) DB() *ode.DB { return s.db }

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Listen binds addr and returns the listener's address; call Serve on
// the result. It exists so callers can bind :0 and learn the port
// before serving.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close. Passing nil serves the
// listener installed by Listen.
func (s *Server) Serve(ln net.Listener) error {
	if ln == nil {
		s.mu.Lock()
		ln = s.ln
		s.mu.Unlock()
		if ln == nil {
			return fmt.Errorf("server: Serve(nil) without Listen")
		}
	} else {
		s.mu.Lock()
		s.ln = ln
		s.mu.Unlock()
	}
	if s.closing.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.met.ConnsTotal.Inc()
		c := &conn{s: s, nc: nc}
		// The closing check and wg.Add happen under s.mu as one step:
		// Close sets closing before taking s.mu to drain, so any accept
		// that gets past this check has already bumped the WaitGroup
		// before Close can reach wg.Wait (Add concurrent with Wait at a
		// zero counter is forbidden, and the goroutine would escape the
		// drain).
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		full := len(s.conns) >= s.opts.MaxConns
		if !full {
			s.conns[c] = struct{}{}
			s.met.Conns.Set(int64(len(s.conns)))
		}
		s.wg.Add(1)
		s.mu.Unlock()
		if full {
			s.met.Sheds.Inc()
			go func() {
				defer s.wg.Done()
				s.shed(nc)
			}()
			continue
		}
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// shed completes the handshake and rejects the connection with a typed
// overload error at request id 0 (a connection-level failure).
func (s *Server) shed(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadHello(nc); err != nil {
		return
	}
	wire.WriteHello(nc, wire.Version, 0)
	n, _ := wire.WriteFrame(nc, &wire.Frame{
		ReqID: 0,
		Type:  wire.RespErr,
		Body:  wire.ErrBody(wire.CodeOverloaded, "server session table full"),
	})
	s.met.BytesOut.Add(uint64(n))
}

// Close stops accepting, drains active connections for DrainTimeout,
// then cancels their transaction contexts and closes their sockets.
// Idle connections are closed immediately. Safe to call repeatedly and
// concurrently; later calls wait for the first to finish.
func (s *Server) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	deadline := time.Now().Add(s.opts.DrainTimeout)
	for {
		s.mu.Lock()
		active := 0
		for c := range s.conns {
			if c.idle() {
				c.nc.Close() // kicks the blocked ReadFrame
			} else {
				active++
			}
		}
		s.mu.Unlock()
		if active == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Force: cancel straggler transactions and close their sockets.
	s.mu.Lock()
	for c := range s.conns {
		c.force()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.done)
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// conn is one client session: the socket, its buffered reader/writer,
// and at most one open transaction.
type conn struct {
	s   *Server
	nc  net.Conn
	br  *bufio.Reader     // over a connReader counting server.bytes_in
	fr  *wire.FrameReader // reused-buffer frame reads over br
	out []byte            // response bytes, flushed once per request burst

	busy atomic.Bool // a request is being processed

	mu       sync.Mutex // guards tx/txCancel against force()
	tx       *ode.Tx
	txCancel context.CancelFunc

	oqlSess *oql.Session
	oqlOut  bytes.Buffer
}

// connReader counts bytes into the server metric as frames are read.
type connReader struct {
	r   io.Reader
	met *obs.Counter
}

func (cr *connReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.met.Add(uint64(n))
	return n, err
}

// idle reports whether the connection can be closed without
// interrupting work: no in-flight request and no open transaction.
func (c *conn) idle() bool {
	if c.busy.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tx == nil
}

// force cancels the connection's transaction context (waking lock
// waits and scan boundaries) and closes the socket.
func (c *conn) force() {
	c.mu.Lock()
	if c.txCancel != nil {
		c.txCancel()
	}
	c.mu.Unlock()
	c.nc.Close()
}

// setTx installs (or clears) the session transaction.
func (c *conn) setTx(tx *ode.Tx, cancel context.CancelFunc) {
	c.mu.Lock()
	c.tx, c.txCancel = tx, cancel
	c.mu.Unlock()
}

// sessionTx returns the open transaction, or nil.
func (c *conn) sessionTx() *ode.Tx {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tx
}

func (c *conn) serve() {
	defer func() {
		// A dropped connection aborts its transaction and releases its
		// locks; so does a shell session's ambient transaction.
		c.mu.Lock()
		tx, cancel := c.tx, c.txCancel
		c.tx, c.txCancel = nil, nil
		c.mu.Unlock()
		if tx != nil {
			tx.Abort()
		}
		if cancel != nil {
			cancel()
		}
		if c.oqlSess != nil {
			c.s.oqlMu.Lock()
			c.oqlSess.AbortTx()
			c.s.oqlMu.Unlock()
		}
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.met.Conns.Set(int64(len(c.s.conns)))
		c.s.mu.Unlock()
	}()

	// Handshake, bounded so a silent client cannot hold a table slot.
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	v, _, err := wire.ReadHello(c.nc)
	if err != nil {
		return
	}
	if v != wire.Version {
		wire.WriteHello(c.nc, 0, 0) // version 0: rejected
		return
	}
	if err := wire.WriteHello(c.nc, wire.Version, 0); err != nil {
		return
	}
	c.nc.SetDeadline(time.Time{})

	c.br = bufio.NewReader(&connReader{r: c.nc, met: &c.s.met.BytesIn})
	c.fr = wire.NewFrameReader(c.br, wire.DefaultMaxFrame)
	for {
		// The frame (and its body) aliases the reader's reused buffer:
		// valid through dispatch, overwritten by the next Read. Handlers
		// decode bodies into their own copies (object.Decode and the
		// string readers copy), so nothing retains the alias.
		f, _, err := c.fr.Read()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.s.logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.s.met.Requests.Inc()
		c.busy.Store(true)
		start := time.Now()
		err = c.dispatch(f)
		// Pipelined clients write bursts of request frames; when more
		// requests are already buffered, hold the responses and write
		// the whole burst's replies in one send.
		if err == nil && c.br.Buffered() == 0 {
			err = c.flush()
		}
		c.s.met.latency(f.Type).Since(start)
		c.busy.Store(false)
		if err != nil {
			c.s.logf("server: %s: %s: %v", c.nc.RemoteAddr(), wire.CmdName(f.Type), err)
			return
		}
	}
}

// reply buffers one response frame, serialized straight into the
// connection's reused output buffer (no per-frame allocation).
func (c *conn) reply(reqID uint64, typ byte, body []byte) error {
	c.out = wire.AppendFrame(c.out, &wire.Frame{ReqID: reqID, Type: typ, Body: body})
	return nil
}

// flush writes the buffered response frames to the socket in one send.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	n, err := c.nc.Write(c.out)
	c.s.met.BytesOut.Add(uint64(n))
	c.out = c.out[:0]
	return err
}

// replyErr buffers a typed error response.
func (c *conn) replyErr(reqID uint64, err error) error {
	return c.reply(reqID, wire.RespErr, wire.ErrBody(wire.Code(err), err.Error()))
}

// protoErr builds a protocol-violation error.
func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", wire.ErrProto, fmt.Sprintf(format, args...))
}

// dispatch handles one request frame. The returned error is
// connection-fatal (write failures, malformed frames that leave the
// stream untrustworthy); request-level failures travel to the client
// as RespErr and return nil here.
func (c *conn) dispatch(f *wire.Frame) error {
	var err error
	switch f.Type {
	case wire.CmdPing:
		err = c.reply(f.ReqID, wire.RespOK, nil)
	case wire.CmdBegin:
		err = c.handleBegin(f)
	case wire.CmdCommit:
		err = c.handleCommit(f)
	case wire.CmdAbort:
		err = c.handleAbort(f)
	case wire.CmdPNew, wire.CmdUpdate:
		err = c.handleWrite(f)
	case wire.CmdDeref, wire.CmdPDelete, wire.CmdCurrentVersion, wire.CmdNewVersion,
		wire.CmdVersions:
		err = c.handleOID(f)
	case wire.CmdDerefCached:
		err = c.handleDerefCached(f)
	case wire.CmdDeleteVersion, wire.CmdDerefVersion:
		err = c.handleVRef(f)
	case wire.CmdForall:
		err = c.handleForall(f)
	case wire.CmdExplain:
		err = c.handleExplain(f)
	case wire.CmdOQL:
		err = c.handleOQL(f)
	case wire.CmdMetrics:
		err = c.handleMetrics(f)
	case wire.CmdWALSubscribe:
		err = c.handleSubscribe(f)
	case wire.CmdReplStatus:
		err = c.handleReplStatus(f)
	case wire.CmdPromote:
		err = c.handlePromote(f)
	case wire.CmdPrepare:
		err = c.handlePrepare(f)
	case wire.CmdCommitPrepared:
		err = c.handleCommitPrepared(f)
	case wire.CmdAbortPrepared:
		err = c.handleAbortPrepared(f)
	case wire.CmdTxStatus:
		err = c.handleTxStatus(f)
	case wire.CmdShardStatus:
		err = c.handleShardStatus(f)
	default:
		err = c.replyErr(f.ReqID, protoErr("unknown command 0x%02x", f.Type))
	}
	return err
}

func (c *conn) handleBegin(f *wire.Frame) error {
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("transaction already open on this connection"))
	}
	d := wire.NewDec(f.Body)
	ms := d.Uvarint()
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("begin: %v", err))
	}
	// A deadline too large to represent as a time.Duration would
	// overflow to a negative value and dodge the MaxDeadline clamp;
	// saturate it to "no deadline" first so the clamp still applies.
	if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		ms = 0
	}
	deadline := time.Duration(ms) * time.Millisecond
	if max := c.s.opts.MaxDeadline; max > 0 && (deadline == 0 || deadline > max) {
		deadline = max
	}
	// Every transaction gets a cancelable context, deadline or not, so
	// force() during Close can interrupt lock waits and scan boundaries.
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	tx := c.s.db.BeginCtx(ctx)
	if !tx.Active() {
		// Never admitted: Commit surfaces the typed rejection
		// (ErrOverloaded, ErrDBClosed) without committing anything.
		rejErr := tx.Commit()
		cancel()
		return c.replyErr(f.ReqID, rejErr)
	}
	c.setTx(tx, cancel)
	// ID, then the node's fencing epoch (a failover-aware client pins
	// the epoch it began under and refuses to fall back to an older
	// one), then the applied LSN — the freshness this node can actually
	// prove, so floored reads detect a replica that regressed by
	// wipe-resync instead of trusting a stale cached position.
	body := wire.AppendUvarint(nil, tx.ID())
	body = wire.AppendUvarint(body, c.s.db.Epoch())
	body = wire.AppendUvarint(body, c.s.db.AppliedLSN())
	return c.reply(f.ReqID, wire.RespOK, body)
}

func (c *conn) handleCommit(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("commit without transaction"))
	}
	err := tx.Commit()
	c.clearTx()
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	// Semi-synchronous gate: the reply waits for the configured number
	// of replica acks. A timeout leaves the commit durable locally but
	// unacknowledged — surfaced as a retryable error, with the ambiguity
	// documented (the client cannot know whether the write survives a
	// failover).
	if q := c.s.opts.CommitAckQuorum; q > 0 && c.s.opts.Repl != nil {
		if err := c.s.opts.Repl.WaitAcked(tx.CommitLSN(), q, c.s.opts.AckTimeout); err != nil {
			return c.replyErr(f.ReqID, err)
		}
	}
	// The body carries the commit's LSN so clients can demand
	// read-your-writes freshness from replicas (client.Replicated),
	// then the epoch the commit happened under.
	body := wire.AppendUvarint(nil, tx.CommitLSN())
	body = wire.AppendUvarint(body, c.s.db.Epoch())
	return c.reply(f.ReqID, wire.RespOK, body)
}

func (c *conn) handleAbort(f *wire.Frame) error {
	if tx := c.sessionTx(); tx != nil {
		tx.Abort()
	}
	c.clearTx()
	return c.reply(f.ReqID, wire.RespOK, nil)
}

func (c *conn) clearTx() {
	c.mu.Lock()
	cancel := c.txCancel
	c.tx, c.txCancel = nil, nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// decodeImage decodes a client object image against the server schema,
// verifying the class ids agree (the client must register the same
// schema as the server, like every opener of the same file).
func (c *conn) decodeImage(class *core.Class, image []byte) (*core.Object, error) {
	cid, err := object.ImageClassID(image)
	if err != nil {
		return nil, err
	}
	if cid != class.ID() {
		return nil, fmt.Errorf("%w: image class id %d, server id %d for %s (client and server schemas must be registered identically)",
			wire.ErrSchema, cid, class.ID(), class.Name)
	}
	return object.Decode(c.s.db.Schema(), image)
}

// handleWrite covers pnew and update: class/oid plus an object image.
func (c *conn) handleWrite(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	switch f.Type {
	case wire.CmdPNew:
		name := d.String()
		image := d.Bytes()
		if err := d.Err(); err != nil {
			return c.replyErr(f.ReqID, protoErr("pnew: %v", err))
		}
		class, ok := c.s.db.Schema().ClassNamed(name)
		if !ok {
			return c.replyErr(f.ReqID, fmt.Errorf("%w: %q", wire.ErrNoClass, name))
		}
		obj, err := c.decodeImage(class, image)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		oid, err := tx.PNew(class, obj)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOID, wire.AppendUvarint(nil, uint64(oid)))
	default: // CmdUpdate
		oid := core.OID(d.Uvarint())
		image := d.Bytes()
		if err := d.Err(); err != nil {
			return c.replyErr(f.ReqID, protoErr("update: %v", err))
		}
		obj, err := object.Decode(c.s.db.Schema(), image)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		if err := tx.Update(oid, obj); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	}
}

// handleOID covers the commands whose body is one oid.
func (c *conn) handleOID(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	oid := core.OID(d.Uvarint())
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("%s: %v", wire.CmdName(f.Type), err))
	}
	switch f.Type {
	case wire.CmdDeref:
		obj, err := tx.Deref(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespObject, wire.AppendBytes(nil, object.Encode(obj)))
	case wire.CmdPDelete:
		if err := tx.PDelete(oid); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	case wire.CmdCurrentVersion:
		v, err := tx.CurrentVersion(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespVersion, wire.AppendUvarint(nil, uint64(v)))
	case wire.CmdNewVersion:
		ref, err := tx.NewVersion(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespVersion, wire.AppendUvarint(nil, uint64(ref.Version)))
	default: // CmdVersions
		vs, err := tx.Versions(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		body := wire.AppendUvarint(nil, uint64(len(vs)))
		for _, v := range vs {
			body = wire.AppendUvarint(body, uint64(v))
		}
		return c.reply(f.ReqID, wire.RespVersions, body)
	}
}

// handleDerefCached is a conditional deref: the body carries the oid
// and the content tag (object.ImageTag) of the image the client holds
// cached. The server derefs under the transaction's ordinary shared
// lock and replies RespOK with an empty body when the current image's
// tag matches ("not modified" — the client reuses its decoded copy),
// or RespObject with the image when it doesn't.
func (c *conn) handleDerefCached(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("deref-cached without transaction"))
	}
	d := wire.NewDec(f.Body)
	oid := core.OID(d.Uvarint())
	tag := d.Uvarint()
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("deref-cached: %v", err))
	}
	obj, err := tx.Deref(oid)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	image := object.Encode(obj)
	if object.ImageTag(image) == tag {
		return c.reply(f.ReqID, wire.RespOK, nil)
	}
	return c.reply(f.ReqID, wire.RespObject, wire.AppendBytes(nil, image))
}

// handleVRef covers the commands whose body is oid + version.
func (c *conn) handleVRef(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	ref := core.VRef{OID: core.OID(d.Uvarint()), Version: uint32(d.Uvarint())}
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("%s: %v", wire.CmdName(f.Type), err))
	}
	switch f.Type {
	case wire.CmdDeleteVersion:
		if err := tx.DeleteVersion(ref); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	default: // CmdDerefVersion
		obj, err := tx.DerefVersion(ref)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespObject, wire.AppendBytes(nil, object.Encode(obj)))
	}
}

// Batch size bounds for streamed forall results. A batch is flushed
// when it holds its row count or when its body passes maxBatchBytes,
// whichever comes first, so a frame stays far below the wire limit
// however wide the rows are.
const (
	defaultBatch  = 256
	maxBatch      = 8192
	maxBatchBytes = 1 << 20
)

// buildQuery assembles a server-side forall from a wire request.
func (c *conn) buildQuery(tx *ode.Tx, req *wire.ForallReq) (*query.Query, error) {
	class, ok := c.s.db.Schema().ClassNamed(req.Class)
	if !ok {
		return nil, fmt.Errorf("%w: %q", wire.ErrNoClass, req.Class)
	}
	q := query.Forall(tx, class)
	if req.Flags&wire.ForallSubtypes != 0 {
		q = q.Subtypes()
	}
	if req.Flags&wire.ForallNoIndex != 0 {
		q = q.NoIndex()
	}
	if req.Field != "" {
		v, rest, err := object.DecodeValue(req.Value)
		if err != nil || len(rest) != 0 {
			return nil, protoErr("forall operand: %v", err)
		}
		q = q.SuchThat(query.FieldPred{Name: req.Field, Op: query.CmpOp(req.Op), Value: v})
	}
	return q, nil
}

// handleForall streams scan results: RespBatch frames of up to the
// requested batch size (and about maxBatchBytes), then RespDone with
// the total row count. Each batch is flushed as it fills, so a large
// scan streams instead of buffering server-side. A row an extent scan
// read from its stored image is shipped as stored (query.DoImages),
// never decoded; only rows that come as objects (the transaction's own
// writes, index-range lookups) are encoded here.
func (c *conn) handleForall(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("forall without transaction"))
	}
	req, err := wire.DecodeForallReq(f.Body, true)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("forall: %v", err))
	}
	batch := int(req.Batch)
	if batch <= 0 {
		batch = defaultBatch
	}
	if batch > maxBatch {
		batch = maxBatch
	}
	q, err := c.buildQuery(tx, req)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	var (
		body, frame []byte
		inBuf       int
		total       uint64
		werr        error
	)
	emit := func() {
		if inBuf == 0 || werr != nil {
			return
		}
		frame = wire.AppendUvarint(frame[:0], uint64(inBuf))
		frame = append(frame, body...)
		if werr = c.reply(f.ReqID, wire.RespBatch, frame); werr == nil {
			werr = c.flush()
		}
		body, inBuf = body[:0], 0
	}
	scanErr := q.DoImages(func(it query.Item, image []byte) (bool, error) {
		if image == nil {
			image = object.Encode(it.Obj)
		}
		body = wire.AppendUvarint(body, uint64(it.OID))
		body = wire.AppendBytes(body, image)
		inBuf++
		total++
		if inBuf >= batch || len(body) >= maxBatchBytes {
			emit()
			if werr != nil {
				return false, werr
			}
		}
		return true, nil
	})
	if werr != nil {
		return werr // socket is gone; connection-fatal
	}
	if scanErr != nil {
		// The client treats an error frame mid-stream as the stream's
		// end; rows already sent are discarded by the caller.
		return c.replyErr(f.ReqID, scanErr)
	}
	emit()
	if werr != nil {
		return werr
	}
	return c.reply(f.ReqID, wire.RespDone, wire.AppendUvarint(nil, total))
}

// handleExplain renders the access-path plan a forall would use,
// without running it. It borrows the session transaction when one is
// open and otherwise uses a short read-only view.
func (c *conn) handleExplain(f *wire.Frame) error {
	req, err := wire.DecodeForallReq(f.Body, false)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("explain: %v", err))
	}
	render := func(tx *ode.Tx) (string, error) {
		q, err := c.buildQuery(tx, req)
		if err != nil {
			return "", err
		}
		return q.Explain().String(), nil
	}
	var plan string
	if tx := c.sessionTx(); tx != nil {
		plan, err = render(tx)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = c.s.db.ViewCtx(ctx, func(tx *ode.Tx) error {
			var verr error
			plan, verr = render(tx)
			return verr
		})
		cancel()
	}
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespText, wire.AppendString(nil, plan))
}

// handleOQL executes O++ source in the connection's shell session (the
// remote ode-sh path): zero or one RespText frame with the printed
// output, then RespOK or RespErr. Execution is serialized server-wide
// because class declarations mutate the shared schema.
func (c *conn) handleOQL(f *wire.Frame) error {
	d := wire.NewDec(f.Body)
	src := d.String()
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("oql: %v", err))
	}
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("oql on a connection with a wire transaction open"))
	}
	c.s.oqlMu.Lock()
	if c.oqlSess == nil {
		c.oqlSess = oql.NewSession(c.s.db, &c.oqlOut)
	}
	execErr := c.oqlSess.Exec(src)
	if errs := c.s.db.Triggers().Errors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(&c.oqlOut, "trigger error: %v\n", e)
		}
	}
	out := c.oqlOut.String()
	c.oqlOut.Reset()
	c.s.oqlMu.Unlock()
	if out != "" {
		if err := c.reply(f.ReqID, wire.RespText, wire.AppendString(nil, out)); err != nil {
			return err
		}
	}
	if execErr != nil {
		return c.replyErr(f.ReqID, execErr)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}

// handleMetrics returns the full metric registry snapshot (engine plus
// server.*) as JSON text — the wire twin of the daemon's HTTP endpoint.
func (c *conn) handleMetrics(f *wire.Frame) error {
	buf, err := json.Marshal(c.reg())
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespText, wire.AppendBytes(nil, buf))
}

func (c *conn) reg() map[string]any { return c.s.reg.Snapshot() }

// handleSubscribe hands the connection over to the replication source:
// after a CmdWALSubscribe the socket carries only WAL frames one way
// and acks the other, until the subscriber disconnects or is dropped.
// The return is always non-nil — a hijacked connection never rejoins
// the request loop.
func (c *conn) handleSubscribe(f *wire.Frame) error {
	src := c.s.opts.Repl
	if src == nil {
		return c.replyErr(f.ReqID, protoErr("this server has no replication source"))
	}
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("wal-subscribe on a connection with a transaction open"))
	}
	req, err := wire.DecodeSubscribeReq(f.Body)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("wal-subscribe: %v", err))
	}
	// Nothing useful can be buffered (a subscriber sends nothing before
	// subscribing), but flush defensively: all writes now bypass c.bw.
	if err := c.flush(); err != nil {
		return err
	}
	// Mark the session idle so Close's drain closes the socket instead
	// of waiting out the drain window: the stream is read-interruptible
	// and holds no transaction.
	c.busy.Store(false)
	err = src.ServeSubscriber(c.nc, c.br, f.ReqID, req)
	if err == nil {
		err = io.EOF
	}
	return fmt.Errorf("wal-subscribe stream ended: %w", err)
}

// handleReplStatus reports the node's replication position: role
// (read-only = replica), replication id, applied LSN, fencing epoch,
// and the last source-initiated subscriber drop. Served from the
// database directly, so it works on primaries and replicas alike; the
// failover monitor's probes land here.
func (c *conn) handleReplStatus(f *wire.Frame) error {
	st := &wire.ReplStatus{
		ReadOnly: c.s.db.ReadOnly(),
		ReplID:   c.s.db.ReplicationID(),
		// AppliedLSN, not LSN: the position must not run ahead of read
		// visibility — the Replicated router trusts it as a freshness
		// proof.
		LSN:       c.s.db.AppliedLSN(),
		Epoch:     c.s.db.Epoch(),
		EpochLSN:  c.s.db.EpochStartLSN(),
		Advertise: c.s.opts.Advertise,
	}
	if c.s.opts.Repl != nil {
		st.LastKill = c.s.opts.Repl.LastKill()
	}
	return c.reply(f.ReqID, wire.RespReplStatus, st.Append(nil))
}

// handlePromote invokes the operator-supplied promotion hook (the wire
// twin of SIGUSR1 on ode-server).
func (c *conn) handlePromote(f *wire.Frame) error {
	if c.s.opts.Promote == nil {
		return c.replyErr(f.ReqID, protoErr("this server has no promotion hook"))
	}
	if err := c.s.opts.Promote(); err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}
