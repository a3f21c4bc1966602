package store

import "math"

// Secondary hash indexes. Policies translate into many equality queries
// (author lookups, Find({field: v}) probes), which scan without an index.
// EnsureIndex installs a hash index on one field; Find and Count use it
// automatically for equality filters, and mutations keep it current.
//
// Index keys follow valueEq exactly: numerics (int64, int, float64) are
// keyed by their float64 value, with -0 folded into +0, and bool, string
// and ID values by themselves. Each key's posting list is an idSeq, so a
// probe hands back documents already in id order. NaN, sets, Optionals and
// missing fields equal no keyable probe value; their ids are tracked in
// unkeyed so the index still covers every document.

// postingKey is a keyable value: kind says which field carries it.
type postingKey struct {
	kind byte
	n    uint64 // float64 bits of a numeric; the id of an ID
	s    string
}

const (
	keyNum byte = iota
	keyFalse
	keyTrue
	keyString
	keyID
)

// keyOf returns the posting key of v; ok is false for values no keyable
// probe value equals.
func keyOf(v Value) (postingKey, bool) {
	switch x := v.(type) {
	case int64:
		return numKey(float64(x))
	case int:
		return numKey(float64(x))
	case float64:
		return numKey(x)
	case bool:
		if x {
			return postingKey{kind: keyTrue}, true
		}
		return postingKey{kind: keyFalse}, true
	case string:
		return postingKey{kind: keyString, s: x}, true
	case ID:
		return postingKey{kind: keyID, n: uint64(x)}, true
	}
	return postingKey{}, false
}

func numKey(f float64) (postingKey, bool) {
	if f != f {
		return postingKey{}, false // NaN equals nothing
	}
	if f == 0 {
		f = 0 // -0 equals +0
	}
	return postingKey{kind: keyNum, n: math.Float64bits(f)}, true
}

type fieldIndex struct {
	field string
	// buckets maps a key to the documents holding it, in id order.
	buckets map[postingKey]*idSeq
	// unkeyed holds ids whose field value is absent or un-keyable.
	unkeyed map[ID]struct{}
}

func newFieldIndex(field string) *fieldIndex {
	return &fieldIndex{
		field:   field,
		buckets: map[postingKey]*idSeq{},
		unkeyed: map[ID]struct{}{},
	}
}

// key returns the posting key of doc's indexed field; ok is false when the
// field is missing or un-keyable.
func (ix *fieldIndex) key(doc Doc) (postingKey, bool) {
	v, present := doc[ix.field]
	if !present {
		return postingKey{}, false
	}
	return keyOf(v)
}

func (ix *fieldIndex) add(id ID, doc Doc) {
	k, ok := ix.key(doc)
	if !ok {
		ix.unkeyed[id] = struct{}{}
		return
	}
	b := ix.buckets[k]
	if b == nil {
		b = &idSeq{}
		ix.buckets[k] = b
	}
	b.put(id, doc)
}

func (ix *fieldIndex) remove(id ID, doc Doc) {
	k, ok := ix.key(doc)
	if !ok {
		delete(ix.unkeyed, id)
		return
	}
	if b := ix.buckets[k]; b != nil {
		b.remove(id)
		if b.live() == 0 {
			delete(ix.buckets, k)
		}
	}
}

// replace moves id from prev's entry to next's. When the key is unchanged
// the posting slot is pointed at the new document in place.
func (ix *fieldIndex) replace(id ID, prev, next Doc) {
	pk, pok := ix.key(prev)
	nk, nok := ix.key(next)
	switch {
	case pok && nok && pk == nk:
		ix.buckets[pk].put(id, next)
	case !pok && !nok:
		// stays unkeyed
	default:
		ix.remove(id, prev)
		ix.add(id, next)
	}
}

// candidates returns the posting list of documents possibly matching
// field == v (nil when no document holds the key), or ok=false when the
// index cannot answer (un-keyable probe value). Unkeyed documents can
// never equal a keyable probe value, so they are excluded: a missing field
// matches no filter, NaN equals nothing, and set/optional values do not
// compare equal to scalars.
func (ix *fieldIndex) candidates(v Value) (*idSeq, bool) {
	k, ok := keyOf(v)
	if !ok {
		return nil, false
	}
	return ix.buckets[k], true
}

// EnsureIndex installs (or reuses) a hash index on the field and backfills
// it from existing documents.
func (c *Collection) EnsureIndex(field string) {
	if field == "id" {
		return // the primary map already serves id lookups
	}
	c.mu.Lock()
	if c.indexes == nil {
		c.indexes = map[string]*fieldIndex{}
	}
	if _, ok := c.indexes[field]; ok {
		c.mu.Unlock()
		return
	}
	ix := newFieldIndex(field)
	for _, s := range c.seq.slots {
		if s.doc != nil {
			ix.add(s.id, s.doc) // ids ascend, so every posting put appends
		}
	}
	c.indexes[field] = ix
	wait := c.db.logMutation(Mutation{Op: MutCreateIndex, Coll: c.name, Field: field})
	c.mu.Unlock()
	c.db.finish(wait)
}

// Indexes lists the indexed fields.
func (c *Collection) Indexes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for f := range c.indexes {
		out = append(out, f)
	}
	return out
}

// indexAdd/indexRemove maintain every index; callers hold the write lock.
func (c *Collection) indexAdd(id ID, doc Doc) {
	for _, ix := range c.indexes {
		ix.add(id, doc)
	}
}

func (c *Collection) indexRemove(id ID, doc Doc) {
	for _, ix := range c.indexes {
		ix.remove(id, doc)
	}
}

// indexProbe finds the most selective equality filter backed by an index
// and returns its posting list, in id order (nil when no document holds
// the key); ok=false means no usable index. The list is the index's own:
// it is valid only under the collection's read lock and must not be
// modified.
func (c *Collection) indexProbe(filters []Filter) (best *idSeq, ok bool) {
	for _, f := range filters {
		if f.Op != FilterEq {
			continue
		}
		ix, indexed := c.indexes[f.Field]
		if !indexed {
			continue
		}
		b, keyable := ix.candidates(f.Value)
		if !keyable {
			continue
		}
		if b == nil {
			return nil, true // no document holds the key
		}
		if !ok || b.live() < best.live() {
			best, ok = b, true
		}
	}
	return best, ok
}
