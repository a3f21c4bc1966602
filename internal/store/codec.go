package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Binary document codec of the durable layer: write-ahead log records and
// compaction snapshots carry documents in this form. Each value is one tag
// byte followed by the kind's payload:
//
//	tagNull, tagFalse, tagTrue, tagNone   no payload
//	tagInt, tagID                         zigzag varint
//	tagFloat                              8-byte little-endian IEEE 754 bits
//	tagString                             uvarint length, then the bytes
//	tagSet                                uvarint count, then the elements
//	tagSome                               the inner value
//
// A document is a uvarint field count followed by (uvarint-length name,
// value) pairs in strictly increasing name order, without "id" (it travels
// beside the document). The encoding is deterministic, and floats keep
// their exact bits: NaN, ±Inf and -0 survive a round trip, which JSON
// cannot represent.
//
// The JSON form (Snapshot, Restore, MarshalDoc) remains the interchange and
// hashing format; this codec is only the on-disk one.

const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagFalse
	tagTrue
	tagString
	tagID
	tagSet
	tagNone
	tagSome
)

// maxValueDepth bounds set/option nesting on both sides of the codec, so a
// damaged length or tag cannot drive the decoder into unbounded recursion,
// and nothing the encoder accepts is refused on the way back.
const maxValueDepth = 64

// AppendDoc appends the binary encoding of d, without its "id" field, to
// dst. It fails only for values outside the store's value universe or
// nested deeper than the codec allows.
func AppendDoc(dst []byte, d Doc) ([]byte, error) {
	names := make([]string, 0, len(d))
	for k := range d {
		if k != "id" {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = AppendString(dst, k)
		var err error
		if dst, err = appendValue(dst, d[k], 0); err != nil {
			return nil, fmt.Errorf("field %s: %w", k, err)
		}
	}
	return dst, nil
}

// AppendString appends s with its uvarint length, the string encoding of
// every durable payload.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return nil, errors.New("store: value nested too deeply")
	}
	switch x := v.(type) {
	case nil:
		return append(dst, tagNull), nil
	case int64:
		return binary.AppendVarint(append(dst, tagInt), x), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(x)), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case string:
		return AppendString(append(dst, tagString), x), nil
	case ID:
		return binary.AppendVarint(append(dst, tagID), int64(x)), nil
	case []Value:
		dst = binary.AppendUvarint(append(dst, tagSet), uint64(len(x)))
		for _, e := range x {
			var err error
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Optional:
		if !x.Present {
			return append(dst, tagNone), nil
		}
		return appendValue(append(dst, tagSome), x.Value, depth+1)
	}
	return nil, fmt.Errorf("store: value %T cannot be serialised", v)
}

// DecodeDoc decodes one AppendDoc encoding that spans b exactly. It never
// panics: truncated, trailing, out-of-order or otherwise malformed input is
// an error.
func DecodeDoc(b []byte) (Doc, error) {
	r := NewReader(b)
	d := r.Doc()
	if err := r.End(); err != nil {
		return nil, err
	}
	return d, nil
}

// Reader decodes the durable layer's binary payloads front to back: the
// fixed-order fields of WAL records and snapshot headers, and documents.
// It never panics; after the first failure every read returns a zero value
// and End reports the failure.
type Reader struct {
	b     []byte
	err   error
	names *Names
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Names shares field-name strings among the documents decoded through it:
// each distinct name is allocated once rather than once per document.
// Recovery keeps one Names for the whole of one log's decode, so the table
// lives as long as the decode and the names as long as the documents. The
// zero value is ready to use; a Names is not safe for concurrent use.
type Names struct{ m map[string]string }

// Reader returns a Reader over b whose documents take their field names
// from n. A nil n shares nothing, like NewReader.
func (n *Names) Reader(b []byte) *Reader { return &Reader{b: b, names: n} }

func (n *Names) intern(b []byte) string {
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	if n.m == nil {
		n.m = map[string]string{}
	}
	s := string(b)
	n.m[s] = s
	return s
}

// End returns the first failure, or an error if bytes remain unread.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: malformed payload: "+format, args...)
	}
	r.b = nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad length")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail("missing byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Count reads the uvarint count of the elements that follow. Every element
// takes at least one byte, so a count beyond the remaining input is damage,
// not an allocation, and loops over a count are bounded by the input.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// Str reads a uvarint-length string (AppendString).
func (r *Reader) Str() string {
	n := r.Count()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// name reads a field name, shared through the reader's Names if it has one.
func (r *Reader) name() string {
	if r.names == nil {
		return r.Str()
	}
	n := r.Count()
	s := r.names.intern(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Doc reads a document (AppendDoc).
func (r *Reader) Doc() Doc {
	n := r.Count()
	d := make(Doc, n+1) // room for the "id" the store adds
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.name()
		if k == "id" || (i > 0 && k <= prev) {
			r.fail("field %q out of order", k)
			break
		}
		prev = k
		d[k] = r.value(0)
	}
	return d
}

func (r *Reader) value(depth int) Value {
	if depth > maxValueDepth {
		r.fail("value nested too deeply")
		return nil
	}
	if len(r.b) == 0 {
		r.fail("missing value")
		return nil
	}
	tag := r.b[0]
	r.b = r.b[1:]
	switch tag {
	case tagNull:
		return nil
	case tagInt:
		return r.Varint()
	case tagFloat:
		if len(r.b) < 8 {
			r.fail("short float")
			return nil
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
		return f
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagString:
		return r.Str()
	case tagID:
		return ID(r.Varint())
	case tagSet:
		set := make([]Value, r.Count())
		for i := range set {
			set[i] = r.value(depth + 1)
		}
		return set
	case tagNone:
		return None()
	case tagSome:
		return Some(r.value(depth + 1))
	}
	r.fail("unknown value tag %d", tag)
	return nil
}
