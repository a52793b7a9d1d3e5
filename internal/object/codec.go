// Package object implements the persistent object manager of an Ode
// database: serialization of objects, the OID directory, cluster
// extents, the version index, and secondary field indexes — all layered
// on the page store and B+trees.
//
// The manager is the redo target of the WAL: every mutation is
// expressible as a wal.Op, and Apply is idempotent, which is what makes
// replay-based recovery sound.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ode/internal/core"
)

// ErrCodec reports a malformed serialized object.
var ErrCodec = errors.New("object: malformed encoding")

// Encode serializes an object's state. The encoding is self-describing
// at the slot level (each slot carries its kind), so schema evolution
// that appends fields can still read old records.
//
// Layout: classID uvarint, slot count uvarint, then each slot value.
func Encode(o *core.Object) []byte {
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(o.Class().ID()))
	buf = binary.AppendUvarint(buf, uint64(o.NumSlots()))
	for i := 0; i < o.NumSlots(); i++ {
		buf = appendValue(buf, o.Slot(i))
	}
	return buf
}

// ImageTag computes the content tag of an encoded image (64-bit
// FNV-1a): the client object cache keys revalidation on it, so a
// cached decoded object can be reused whenever the server's current
// image hashes to the same tag. Encode is deterministic (slots in
// declaration order), so equal states yield equal tags.
func ImageTag(image []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range image {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func appendValue(buf []byte, v core.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case core.KNull:
	case core.KInt:
		buf = binary.AppendVarint(buf, v.Int())
	case core.KFloat:
		buf = binary.AppendUvarint(buf, math.Float64bits(v.Float()))
	case core.KBool:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case core.KChar:
		buf = binary.AppendVarint(buf, int64(v.Char()))
	case core.KString:
		s := v.Str()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	case core.KOID:
		buf = binary.AppendUvarint(buf, uint64(v.OID()))
	case core.KVRef:
		r := v.VRef()
		buf = binary.AppendUvarint(buf, uint64(r.OID))
		buf = binary.AppendUvarint(buf, uint64(r.Version))
	case core.KSet:
		elems := v.Set().Elems()
		buf = binary.AppendUvarint(buf, uint64(len(elems)))
		for _, e := range elems {
			buf = appendValue(buf, e)
		}
	case core.KArray:
		elems := v.Array().Elems()
		buf = binary.AppendUvarint(buf, uint64(len(elems)))
		for _, e := range elems {
			buf = appendValue(buf, e)
		}
	}
	return buf
}

// Decode reconstructs an object from its serialized state against the
// schema. The class is resolved by the recorded class id.
func Decode(schema *core.Schema, data []byte) (*core.Object, error) {
	r, err := NewSlotReader(schema, data)
	if err != nil {
		return nil, err
	}
	o := core.NewObject(r.Class)
	if err := r.decodeInto(o); err != nil {
		return nil, err
	}
	return o, nil
}

// BlockDecoder is Decode for the many objects of a scan: it carves the
// objects and their slots out of shared blocks of blockObjects, so two
// allocations serve a block instead of two per object (a string value
// still takes its own). A block stays reachable while any object carved
// from it does. The zero BlockDecoder is ready to use; it is not safe
// for concurrent use.
type BlockDecoder struct {
	objs []core.Object
	vals []core.Value
}

// blockObjects is how many objects one BlockDecoder block holds.
const blockObjects = 64

// Decode is Decode, from the decoder's blocks.
func (d *BlockDecoder) Decode(schema *core.Schema, data []byte) (*core.Object, error) {
	r, err := NewSlotReader(schema, data)
	if err != nil {
		return nil, err
	}
	n := r.Class.NumSlots()
	if len(d.objs) == 0 {
		d.objs = make([]core.Object, blockObjects)
	}
	if len(d.vals) < n {
		d.vals = make([]core.Value, n*blockObjects)
	}
	o := &d.objs[0]
	core.InitObject(o, r.Class, d.vals[:n:n])
	d.objs, d.vals = d.objs[1:], d.vals[n:]
	if err := r.decodeInto(o); err != nil {
		return nil, err
	}
	return o, nil
}

// SlotReader reads single slots of an encoded image without decoding
// the object: the query layer tests suchthat predicates on stored
// images this way and decodes only the rows that pass.
type SlotReader struct {
	Class *core.Class // the recorded class
	n     int         // slots in the record
	slots []byte      // the encoded slot values
}

// NewSlotReader parses the header of an encoded image: the class, by
// the recorded class id, and the slot count. It fails where Decode
// would on a bad header, an unknown class, or a record wider than its
// class.
func NewSlotReader(schema *core.Schema, data []byte) (SlotReader, error) {
	cid, n := binary.Uvarint(data)
	if n <= 0 {
		return SlotReader{}, fmt.Errorf("%w: class id", ErrCodec)
	}
	data = data[n:]
	class, ok := schema.ClassByID(core.ClassID(cid))
	if !ok {
		return SlotReader{}, fmt.Errorf("object: record references unknown class id %d (schema not registered?)", cid)
	}
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return SlotReader{}, fmt.Errorf("%w: slot count", ErrCodec)
	}
	if count > uint64(class.NumSlots()) {
		// Record written by a wider (newer) layout than registered:
		// refuse rather than silently truncate.
		return SlotReader{}, fmt.Errorf("object: record for %s has %d slots, schema has %d", class.Name, count, class.NumSlots())
	}
	return SlotReader{Class: class, n: int(count), slots: data[n:]}, nil
}

// decodeInto decodes the record's slots into o, a zero instance of
// r.Class. Slots beyond the record (schema grew) keep their zero
// values.
func (r SlotReader) decodeInto(o *core.Object) error {
	data := r.slots
	for i := 0; i < r.n; i++ {
		v, rest, err := decodeValue(data)
		if err != nil {
			return fmt.Errorf("slot %d of %s: %w", i, r.Class.Name, err)
		}
		data = rest
		o.SetSlot(i, v)
	}
	return nil
}

// Slot returns the value of slot i, skipping the slots before it
// without building them. A slot past the end of a record written
// before its class grew reads as the field's zero value, as Decode
// leaves it.
func (r SlotReader) Slot(i int) (core.Value, error) {
	if i >= r.n {
		return r.Class.Layout()[i].Type.Zero(), nil
	}
	data := r.slots
	for j := 0; j < i; j++ {
		rest, err := skipValue(data)
		if err != nil {
			return core.Null, fmt.Errorf("slot %d of %s: %w", j, r.Class.Name, err)
		}
		data = rest
	}
	v, _, err := decodeValue(data)
	if err != nil {
		return core.Null, fmt.Errorf("slot %d of %s: %w", i, r.Class.Name, err)
	}
	return v, nil
}

// EncodeValue serializes one value standalone, in the same
// self-describing form the object codec uses for slots. The wire
// protocol carries predicate operands this way.
func EncodeValue(v core.Value) []byte { return appendValue(nil, v) }

// DecodeValue deserializes one value from the front of data, returning
// the remainder.
func DecodeValue(data []byte) (core.Value, []byte, error) { return decodeValue(data) }

// ImageClassID peeks the class id of a serialized object without
// decoding it (the wire layer verifies client and server schemas agree
// before applying a remote image).
func ImageClassID(image []byte) (core.ClassID, error) {
	cid, n := binary.Uvarint(image)
	if n <= 0 {
		return 0, fmt.Errorf("%w: class id", ErrCodec)
	}
	return core.ClassID(cid), nil
}

func decodeValue(data []byte) (core.Value, []byte, error) {
	if len(data) == 0 {
		return core.Null, nil, fmt.Errorf("%w: truncated value", ErrCodec)
	}
	kind := core.Kind(data[0])
	data = data[1:]
	switch kind {
	case core.KNull:
		return core.Null, data, nil
	case core.KInt:
		x, n := binary.Varint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: int", ErrCodec)
		}
		return core.Int(x), data[n:], nil
	case core.KFloat:
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: float", ErrCodec)
		}
		return core.Float(math.Float64frombits(x)), data[n:], nil
	case core.KBool:
		if len(data) == 0 {
			return core.Null, nil, fmt.Errorf("%w: bool", ErrCodec)
		}
		return core.Bool(data[0] != 0), data[1:], nil
	case core.KChar:
		x, n := binary.Varint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: char", ErrCodec)
		}
		return core.Char(rune(x)), data[n:], nil
	case core.KString:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return core.Null, nil, fmt.Errorf("%w: string", ErrCodec)
		}
		return core.Str(string(data[n : n+int(l)])), data[n+int(l):], nil
	case core.KOID:
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: oid", ErrCodec)
		}
		return core.Ref(core.OID(x)), data[n:], nil
	case core.KVRef:
		oid, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: vref oid", ErrCodec)
		}
		data = data[n:]
		ver, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: vref version", ErrCodec)
		}
		return core.VersionRef(core.VRef{OID: core.OID(oid), Version: uint32(ver)}), data[n:], nil
	case core.KSet:
		cnt, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: set count", ErrCodec)
		}
		data = data[n:]
		s := core.NewSet()
		for i := uint64(0); i < cnt; i++ {
			e, rest, err := decodeValue(data)
			if err != nil {
				return core.Null, nil, err
			}
			s.Insert(e)
			data = rest
		}
		return core.SetOf(s), data, nil
	case core.KArray:
		cnt, n := binary.Uvarint(data)
		if n <= 0 {
			return core.Null, nil, fmt.Errorf("%w: array count", ErrCodec)
		}
		data = data[n:]
		a := core.NewArray()
		for i := uint64(0); i < cnt; i++ {
			e, rest, err := decodeValue(data)
			if err != nil {
				return core.Null, nil, err
			}
			a.Append(e)
			data = rest
		}
		return core.ArrayOf(a), data, nil
	}
	return core.Null, nil, fmt.Errorf("%w: unknown kind %d", ErrCodec, kind)
}

// skipValue steps over one encoded value without building it: it
// decodes scalars, which allocate nothing, and steps over strings and
// over the elements of sets and arrays.
func skipValue(data []byte) ([]byte, error) {
	if len(data) > 0 {
		switch kind := core.Kind(data[0]); kind {
		case core.KString:
			l, n := binary.Uvarint(data[1:])
			if n <= 0 || uint64(len(data)-1-n) < l {
				return nil, fmt.Errorf("%w: string", ErrCodec)
			}
			return data[1+n+int(l):], nil
		case core.KSet, core.KArray:
			cnt, n := binary.Uvarint(data[1:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: %s count", ErrCodec, kind)
			}
			data = data[1+n:]
			for i := uint64(0); i < cnt; i++ {
				var err error
				if data, err = skipValue(data); err != nil {
					return nil, err
				}
			}
			return data, nil
		}
	}
	_, rest, err := decodeValue(data)
	return rest, err
}
