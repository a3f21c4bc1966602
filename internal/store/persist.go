package store

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Snapshot / Restore serialise the full database to a typed JSON document
// and load it back losslessly: the interchange format of SaveState and
// LoadState, and the canonical bytes state hashes are taken over. Plain
// encoding/json cannot round-trip the value universe (int64 vs float64, ID
// vs int, Optional), so every value carries a type tag. The write-ahead log
// persists the store in the binary codec (codec.go) instead.

// snapshotFile is the JSON document layout.
type snapshotFile struct {
	Version     int                       `json:"version"`
	NextID      int64                     `json:"nextId"`
	Collections map[string]collectionSnap `json:"collections"`
}

type collectionSnap struct {
	Indexes []string           `json:"indexes,omitempty"`
	Docs    map[string]docSnap `json:"docs"` // key: decimal id
}

type docSnap map[string]taggedValue

type taggedValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v"`
}

func encodeValue(v Value) (taggedValue, error) {
	mk := func(t string, v any) (taggedValue, error) {
		raw, err := json.Marshal(v)
		if err != nil {
			return taggedValue{}, err
		}
		return taggedValue{T: t, V: raw}, nil
	}
	switch x := v.(type) {
	case nil:
		return mk("null", nil)
	case int64:
		return mk("i", x)
	case float64:
		return mk("f", x)
	case bool:
		return mk("b", x)
	case string:
		return mk("s", x)
	case ID:
		return mk("id", int64(x))
	case []Value:
		elems := make([]taggedValue, len(x))
		for i, e := range x {
			tv, err := encodeValue(e)
			if err != nil {
				return taggedValue{}, err
			}
			elems[i] = tv
		}
		return mk("set", elems)
	case Optional:
		if !x.Present {
			return mk("none", nil)
		}
		inner, err := encodeValue(x.Value)
		if err != nil {
			return taggedValue{}, err
		}
		return mk("some", inner)
	}
	return taggedValue{}, fmt.Errorf("store: value %T cannot be serialised", v)
}

func decodeValue(tv taggedValue) (Value, error) {
	switch tv.T {
	case "null":
		return nil, nil
	case "i":
		var n int64
		err := json.Unmarshal(tv.V, &n)
		return n, err
	case "f":
		var f float64
		err := json.Unmarshal(tv.V, &f)
		return f, err
	case "b":
		var b bool
		err := json.Unmarshal(tv.V, &b)
		return b, err
	case "s":
		var s string
		err := json.Unmarshal(tv.V, &s)
		return s, err
	case "id":
		var n int64
		err := json.Unmarshal(tv.V, &n)
		return ID(n), err
	case "set":
		var elems []taggedValue
		if err := json.Unmarshal(tv.V, &elems); err != nil {
			return nil, err
		}
		out := make([]Value, len(elems))
		for i, e := range elems {
			v, err := decodeValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "none":
		return None(), nil
	case "some":
		var inner taggedValue
		if err := json.Unmarshal(tv.V, &inner); err != nil {
			return nil, err
		}
		v, err := decodeValue(inner)
		if err != nil {
			return nil, err
		}
		return Some(v), nil
	}
	return nil, fmt.Errorf("store: unknown value tag %q", tv.T)
}

// Snapshot writes the whole database as JSON, the interchange and hashing
// form (SaveState, StateHash). Collections are written in sorted order so
// snapshots are deterministic, and the JSON is taken at a consistent cut
// (see ReadCut).
func (db *DB) Snapshot(w io.Writer) error {
	file := &snapshotFile{Version: 1, Collections: map[string]collectionSnap{}}
	err := db.ReadCut(nil, func(nextID int64, colls []CutView) error {
		file.NextID = nextID
		for _, c := range colls {
			snap := collectionSnap{Indexes: c.Indexes(), Docs: make(map[string]docSnap, c.Len())}
			err := c.Each(func(id ID, d Doc) error {
				ds, err := tagDoc(d)
				if err != nil {
					return fmt.Errorf("collection %s doc %v: %w", c.Name(), id, err)
				}
				snap.Docs[fmt.Sprint(int64(id))] = ds
				return nil
			})
			if err != nil {
				return err
			}
			file.Collections[c.Name()] = snap
		}
		return nil
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// CutView is one collection as seen at a ReadCut. It is valid only inside
// the ReadCut callback; the documents it yields must not be retained or
// mutated.
type CutView struct{ c *Collection }

// Name returns the collection name.
func (v CutView) Name() string { return v.c.name }

// Len returns the number of documents at the cut.
func (v CutView) Len() int { return len(v.c.docs) }

// Indexes lists the indexed fields in sorted order.
func (v CutView) Indexes() []string {
	var out []string
	for f := range v.c.indexes {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// Each calls fn with every document in ascending id order, stopping at the
// first error. It walks the collection's id sequence, so it neither
// allocates nor sorts while the cut holds every collection lock.
func (v CutView) Each(fn func(id ID, d Doc) error) error {
	for _, s := range v.c.seq.slots {
		if s.doc == nil {
			continue
		}
		if err := fn(s.id, s.doc); err != nil {
			return err
		}
	}
	return nil
}

// ReadCut reads the database at a consistent point-in-time cut: the DB
// lock and every collection lock are acquired, in sorted name order, before
// any document is read, and held until read returns. A concurrent writer's
// mutations are therefore all visible or all absent relative to the ones
// before them. cut, when non-nil, runs at the cut point, while no writer
// can sit between applying a mutation and logging it; the WAL uses it to
// rotate segments exactly at a compaction boundary. read receives the id
// allocator's position and the collections in sorted name order.
func (db *DB) ReadCut(cut func(), read func(nextID int64, colls []CutView) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	slices.Sort(names)
	views := make([]CutView, len(names))
	for i, n := range names {
		c := db.colls[n]
		c.mu.RLock()
		defer c.mu.RUnlock()
		views[i] = CutView{c}
	}
	if cut != nil {
		cut()
	}
	return read(db.nextID.Load(), views)
}

// tagDoc renders a document in the JSON snapshot's typed tagging, without
// its "id" field.
func tagDoc(d Doc) (docSnap, error) {
	ds := make(docSnap, len(d))
	for k, v := range d {
		if k == "id" {
			continue
		}
		tv, err := encodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", k, err)
		}
		ds[k] = tv
	}
	return ds, nil
}

// MarshalDoc encodes a document with the same typed tagging Snapshot uses,
// skipping the "id" field. It is the per-document input to the collection
// and shard state hashes (encoding/json sorts the keys, so it is
// deterministic).
func MarshalDoc(d Doc) ([]byte, error) {
	ds, err := tagDoc(d)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ds)
}

// Restore loads a snapshot into a fresh database.
func Restore(r io.Reader) (*DB, error) {
	var file snapshotFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	if file.Version != 1 {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", file.Version)
	}
	db := Open()
	db.nextID.Store(file.NextID)
	for name, snap := range file.Collections {
		c := db.Collection(name)
		for _, field := range snap.Indexes {
			c.EnsureIndex(field)
		}
		// Insert in ascending id order, so every insert appends to the
		// collection's id sequence.
		type entry struct {
			id ID
			ds docSnap
		}
		entries := make([]entry, 0, len(snap.Docs))
		for idStr, ds := range snap.Docs {
			var idNum int64
			if _, err := fmt.Sscan(idStr, &idNum); err != nil {
				return nil, fmt.Errorf("store: bad document id %q: %w", idStr, err)
			}
			entries = append(entries, entry{ID(idNum), ds})
		}
		slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
		for _, e := range entries {
			doc := make(Doc, len(e.ds)+1)
			for k, tv := range e.ds {
				v, err := decodeValue(tv)
				if err != nil {
					return nil, fmt.Errorf("store: %s/%d.%s: %w", name, int64(e.id), k, err)
				}
				doc[k] = v
			}
			if err := c.Adopt(e.id, doc); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
