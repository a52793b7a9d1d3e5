package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"ode"
	"ode/internal/wire"
)

// TestReplicaRejectsStaleEpochFrame is the fencing regression test: a
// WAL frame stamped with an epoch below the replica's own must be
// refused without being applied. The applied LSN must not move — a
// deposed primary shipping its forked tail would otherwise smuggle
// fenced history into the follower — and the stream must end fatally
// (no silent reconnect into the same stale source) with the reject
// counted.
func TestReplicaRejectsStaleEpochFrame(t *testing.T) {
	schema := ode.NewSchema()
	ode.NewClass("stockitem").Field("name", ode.TString).Register(schema)
	db, err := ode.Open(filepath.Join(t.TempDir(), "r.odb"), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Put the local node at epoch 1 so a frame at epoch 0 is stale.
	if _, err := db.BumpEpoch(); err != nil {
		t.Fatal(err)
	}

	// A fake primary: completes the handshake, accepts the
	// subscription at the replica's own epoch, then ships one WAL
	// frame stamped with the deposed epoch 0.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	servErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			servErr <- err
			return
		}
		defer nc.Close()
		if _, _, err := wire.ReadHello(nc); err != nil {
			servErr <- err
			return
		}
		if err := wire.WriteHello(nc, wire.Version, 0); err != nil {
			servErr <- err
			return
		}
		br := bufio.NewReader(nc)
		f, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			servErr <- err
			return
		}
		req, err := wire.DecodeSubscribeReq(f.Body)
		if err != nil {
			servErr <- err
			return
		}
		st := &wire.ReplStatus{ReplID: req.ReplID, LSN: req.LSN, Epoch: req.Epoch}
		out := wire.AppendFrame(nil, &wire.Frame{ReqID: f.ReqID, Type: wire.RespReplStatus, Body: st.Append(nil)})
		// The stale frame: epoch 0 at the next LSN. The body is
		// garbage on purpose — the fence must trip before any apply.
		out = wire.AppendFrame(out, &wire.Frame{ReqID: f.ReqID, Type: wire.RespWALFrame,
			Body: wire.WALFrameBody(req.LSN+1, 0, []byte("forked-history"))})
		if _, err := nc.Write(out); err != nil {
			servErr <- err
			return
		}
		servErr <- nil
		// Hold the connection open; the replica closes it when it
		// fences.
		buf := make([]byte, 64)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()

	lsnBefore := db.AppliedLSN()
	met := &Metrics{}
	rep := NewReplica(db, ln.Addr().String(), met, nil)
	if err := rep.Start(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer rep.Stop()

	select {
	case <-rep.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("replica did not fence the stale-epoch frame")
	}
	if err := <-servErr; err != nil {
		t.Fatalf("fake primary: %v", err)
	}
	if err := rep.Err(); !errors.Is(err, ode.ErrStaleEpoch) {
		t.Fatalf("replica error = %v, want ErrStaleEpoch", err)
	}
	if got := met.StaleEpochRejects.Load(); got != 1 {
		t.Fatalf("StaleEpochRejects = %d, want 1", got)
	}
	if got := db.AppliedLSN(); got != lsnBefore {
		t.Fatalf("applied LSN advanced across a fenced frame: %d -> %d", lsnBefore, got)
	}
	if db.Epoch() != 1 {
		t.Fatalf("local epoch changed: %d, want 1", db.Epoch())
	}
}

// TestReplicaRejectsOversizedFrame: a stream frame whose length header
// exceeds wire.DefaultMaxFrame ends the connection before any body is
// read, instead of the replica buffering it.
func TestReplicaRejectsOversizedFrame(t *testing.T) {
	schema := ode.NewSchema()
	ode.NewClass("stockitem").Field("name", ode.TString).Register(schema)
	db, err := ode.Open(filepath.Join(t.TempDir(), "r.odb"), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// A fake primary: accepts the subscription, then announces a frame
	// one byte over the bound and waits for the replica to hang up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			hungUp <- err
			return
		}
		defer nc.Close()
		if _, _, err := wire.ReadHello(nc); err != nil {
			hungUp <- err
			return
		}
		if err := wire.WriteHello(nc, wire.Version, 0); err != nil {
			hungUp <- err
			return
		}
		br := bufio.NewReader(nc)
		f, _, err := wire.ReadFrame(br, wire.DefaultMaxFrame)
		if err != nil {
			hungUp <- err
			return
		}
		req, err := wire.DecodeSubscribeReq(f.Body)
		if err != nil {
			hungUp <- err
			return
		}
		st := &wire.ReplStatus{ReplID: req.ReplID, LSN: req.LSN, Epoch: req.Epoch}
		out := wire.AppendFrame(nil, &wire.Frame{ReqID: f.ReqID, Type: wire.RespReplStatus, Body: st.Append(nil)})
		out = binary.BigEndian.AppendUint32(out, wire.DefaultMaxFrame+1)
		if _, err := nc.Write(out); err != nil {
			hungUp <- err
			return
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = br.ReadByte()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			hungUp <- errors.New("replica kept the connection open after an oversized frame header")
			return
		}
		hungUp <- nil
	}()

	rep := NewReplica(db, ln.Addr().String(), &Metrics{}, nil)
	if err := rep.Start(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer rep.Stop()
	if err := <-hungUp; err != nil {
		t.Fatal(err)
	}
}
