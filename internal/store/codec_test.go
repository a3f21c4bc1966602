package store

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// sameValue is deep equality with floats compared by bits, so NaN equals
// itself and -0 differs from +0.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case Optional:
		y, ok := b.(Optional)
		return ok && x.Present == y.Present && sameValue(x.Value, y.Value)
	}
	return a == b
}

func sameDoc(a, b Doc) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

func TestDocCodecKeepsFloatBits(t *testing.T) {
	doc := Doc{
		"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1),
		"negzero": math.Copysign(0, -1), "set": []Value{math.NaN(), Some(math.Inf(-1))},
	}
	enc, err := AppendDoc(nil, doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDoc(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDoc(doc, back) {
		t.Fatalf("float bits changed: %#v -> %#v", doc, back)
	}
}

func TestDocCodecDeterministicAndSkipsID(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		doc := randDoc(r)
		enc, err := AppendDoc(nil, doc)
		if err != nil {
			t.Fatal(err)
		}
		withID := doc.Clone()
		withID["id"] = ID(42)
		enc2, err := AppendDoc(nil, withID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding depends on map order or on the id field")
		}
		back, err := DecodeDoc(enc)
		if err != nil || !sameDoc(doc, back) {
			t.Fatalf("round trip: %v: %#v -> %#v", err, doc, back)
		}
	}
}

func TestDecodeDocRejectsDamage(t *testing.T) {
	good, err := AppendDoc(nil, Doc{"a": int64(1), "b": "x"})
	if err != nil {
		t.Fatal(err)
	}
	nested := Value(int64(0))
	for i := 0; i <= maxValueDepth+1; i++ {
		nested = Some(nested)
	}
	if _, err := AppendDoc(nil, Doc{"deep": nested}); err == nil {
		t.Fatal("encoder accepted a value nested beyond the decoder's bound")
	}
	if _, err := AppendDoc(nil, Doc{"n": 7}); err == nil {
		t.Fatal("encoder accepted a value outside the universe")
	}
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"out of order": {2, 1, 'b', tagNull, 1, 'a', tagNull},
		"duplicate":    {2, 1, 'a', tagNull, 1, 'a', tagNull},
		"id field":     {1, 2, 'i', 'd', tagID, 2},
		"unknown tag":  {1, 1, 'a', 0xEE},
		"huge count":   {1, 1, 'a', tagSet, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"short float":  {1, 1, 'a', tagFloat, 0, 0},
		"deep":         append([]byte{1, 1, 'a'}, bytes.Repeat([]byte{tagSome}, 10000)...),
	}
	for name, b := range cases {
		if _, err := DecodeDoc(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeDoc: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to a document that decodes back to itself.
func FuzzDecodeDoc(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		enc, err := AppendDoc(nil, randDoc(r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{1, 1, 'f', tagFloat, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDoc(b)
		if err != nil {
			return
		}
		enc, err := AppendDoc(nil, d)
		if err != nil {
			t.Fatalf("decoded document does not re-encode: %v", err)
		}
		back, err := DecodeDoc(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !sameDoc(d, back) {
			t.Fatalf("round trip changed the document: %#v -> %#v", d, back)
		}
	})
}

// TestNamesShareFieldNames: documents decoded through one Names share each
// field-name string and decode to the same documents as without it.
func TestNamesShareFieldNames(t *testing.T) {
	orig := Doc{"author": ID(1), "body": "x", "tags": []Value{"a"}}
	enc, err := AppendDoc(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	var names Names
	authorKey := func(r *Reader) *byte {
		t.Helper()
		d := r.Doc()
		if err := r.End(); err != nil {
			t.Fatal(err)
		}
		if !sameDoc(d, orig) {
			t.Fatalf("decoded %#v, want %#v", d, orig)
		}
		for k := range d {
			if k == "author" {
				return unsafe.StringData(k)
			}
		}
		t.Fatal("no author field")
		return nil
	}
	if authorKey(names.Reader(enc)) != authorKey(names.Reader(enc)) {
		t.Fatal("documents decoded through one Names hold separate copies of a field name")
	}
	if authorKey(NewReader(enc)) == authorKey(NewReader(enc)) {
		t.Fatal("documents decoded without a Names share a field name")
	}
}
