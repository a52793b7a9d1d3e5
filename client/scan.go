package client

import (
	"ode"
	"ode/internal/object"
	"ode/internal/wire"
)

// Cmp enumerates predicate comparisons for remote forall scans; the
// values match the engine's query.CmpOp.
type Cmp byte

// Comparison operators.
const (
	CmpEq Cmp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Scan describes a remote forall: the class to iterate, whether to
// include subtypes, and an optional indexed field predicate. The
// server plans it exactly like an embedded forall (index selection
// included); Explain shows the plan it would pick.
type Scan struct {
	Class    *ode.Class
	Subtypes bool
	NoIndex  bool // force a scan even when an index matches
	Field    string
	Op       Cmp
	Value    ode.Value
	Batch    int // rows per result frame; 0 = server default
}

func (s *Scan) req(withBatch bool) []byte {
	r := wire.ForallReq{Class: s.Class.Name, Field: s.Field, Op: byte(s.Op)}
	if s.Subtypes {
		r.Flags |= wire.ForallSubtypes
	}
	if s.NoIndex {
		r.Flags |= wire.ForallNoIndex
	}
	if s.Field != "" {
		r.Value = object.EncodeValue(s.Value)
	}
	if s.Batch > 0 {
		r.Batch = uint64(s.Batch)
	}
	return r.Append(nil, withBatch)
}

// Forall streams the scan's results through fn in OID order, returning
// the row count. Results arrive in batches (RespBatch frames) and fn
// runs as they arrive; returning false stops consumption client-side
// (the remaining stream is drained). An error frame mid-stream ends
// the scan with that typed error. Rows are decoded into blocks shared
// by many objects (object.BlockDecoder); fn may keep them.
func (tx *Tx) Forall(s *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	return tx.scan(s, fn)
}

// scan is Forall; a nil fn counts the rows without decoding them.
func (tx *Tx) scan(s *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	if tx.done {
		return 0, ode.ErrTxDone
	}
	cn := tx.cn
	cn.nextID++
	id := cn.nextID
	buf := wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: wire.CmdForall, Body: s.req(true)})

	total := 0
	var scanErr error
	stop := false
	var dec object.BlockDecoder
	err := cn.do(tx.context(), func() error {
		if err := cn.send(buf); err != nil {
			return err
		}
		for {
			f, err := cn.recv(id)
			if err != nil {
				return err
			}
			switch f.Type {
			case wire.RespBatch:
				d := wire.NewDec(f.Body)
				n := d.Uvarint()
				for i := uint64(0); i < n; i++ {
					oid := ode.OID(d.Uvarint())
					image := d.Bytes()
					if d.Err() != nil {
						break
					}
					if stop || scanErr != nil {
						continue // draining
					}
					if fn == nil {
						total++
						continue
					}
					obj, err := dec.Decode(tx.c.schema, image)
					if err != nil {
						scanErr = err
						continue
					}
					total++
					more, err := fn(oid, obj)
					if err != nil {
						scanErr = err
					} else if !more {
						stop = true
					}
				}
				if err := d.Err(); err != nil {
					cn.broken = true
					return err
				}
			case wire.RespDone:
				return nil
			case wire.RespErr:
				if scanErr == nil {
					scanErr = wire.DecodeErrBody(f.Body)
				}
				return nil // the error frame ends the stream
			default:
				cn.broken = true
				return protoErr("forall: unexpected response 0x%02x", f.Type)
			}
		}
	})
	if err != nil {
		return total, err
	}
	return total, scanErr
}

// Collect runs the scan and returns every row.
func (tx *Tx) Collect(s *Scan) ([]ode.OID, []*ode.Object, error) {
	var oids []ode.OID
	var objs []*ode.Object
	_, err := tx.Forall(s, func(oid ode.OID, obj *ode.Object) (bool, error) {
		oids = append(oids, oid)
		objs = append(objs, obj)
		return true, nil
	})
	return oids, objs, err
}

// Count runs the scan and counts its rows. Like an embedded Count, it
// decodes none of them.
func (tx *Tx) Count(s *Scan) (int, error) {
	return tx.scan(s, nil)
}

// Explain returns the access-path plan the server would use for the
// scan, without running it — the remote twin of ode.Explain.
func (tx *Tx) Explain(s *Scan) (string, error) {
	resp, err := tx.op(wire.CmdExplain, s.req(false))
	if err != nil {
		return "", err
	}
	return textResp(tx.cn, resp)
}

// textResp decodes a RespText frame.
func textResp(cn *wconn, resp *wire.Frame) (string, error) {
	if resp.Type != wire.RespText {
		cn.broken = true
		return "", protoErr("unexpected response 0x%02x, want text", resp.Type)
	}
	d := wire.NewDec(resp.Body)
	s := d.String()
	if err := d.Err(); err != nil {
		cn.broken = true
		return "", err
	}
	return s, nil
}
