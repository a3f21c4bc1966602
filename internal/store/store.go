// Package store is an in-memory, concurrency-safe document database — the
// substrate beneath the Scooter ORM. The paper's implementation uses a
// MongoDB driver; this store exposes the same primitives the ORM needs
// (collections of documents, filter queries, field updates, inserts and
// deletes) so the policy-enforcement code path is exercised identically.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ID is a document identifier, unique per database.
type ID int64

// Nil is the zero ID.
const Nil ID = 0

func (id ID) String() string { return fmt.Sprintf("#%d", int64(id)) }

// Value is a document field value: one of int64, float64, bool, string,
// ID, []Value (sets), Optional, or nil.
type Value any

// Optional wraps an optional field value: Present false models None.
type Optional struct {
	Present bool
	Value   Value
}

// Some returns a present Optional.
func Some(v Value) Optional { return Optional{Present: true, Value: v} }

// None returns an absent Optional.
func None() Optional { return Optional{} }

// Doc is a single document: field name to value. The "id" field is
// maintained by the store.
//
// A document is immutable once it is stored: Get, Find and FindAfter hand
// out the stored map itself, shared by every reader, and writers never
// change a stored map in place but build a new one and swap it in. A Doc
// obtained from a read is therefore read-only, and it keeps the values it
// had when it was read.
type Doc map[string]Value

// Clone returns a deep copy of the document.
func (d Doc) Clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = CloneValue(v)
	}
	return out
}

// CloneValue returns a deep copy of a field value: sets and optionals are
// copied, scalars are returned as they are. Code that hands a stored value
// to a caller allowed to modify it copies it with CloneValue first.
func CloneValue(v Value) Value {
	switch x := v.(type) {
	case []Value:
		out := make([]Value, len(x))
		for i, e := range x {
			out[i] = CloneValue(e)
		}
		return out
	case Optional:
		return Optional{Present: x.Present, Value: CloneValue(x.Value)}
	default:
		return v
	}
}

// withFields returns a copy of d with fields overwritten by deep copies of
// the given values; the id field is never overwritten. Values kept from d
// are shared, not copied: they belong to a stored document, so nothing
// modifies them.
func withFields(d, fields Doc) Doc {
	out := make(Doc, len(d)+len(fields))
	for k, v := range d {
		out[k] = v
	}
	for k, v := range fields {
		if k == "id" {
			continue // ids are immutable
		}
		out[k] = CloneValue(v)
	}
	return out
}

// ID returns the document's id.
func (d Doc) ID() ID {
	if id, ok := d["id"].(ID); ok {
		return id
	}
	return Nil
}

// FilterOp is a query operator.
type FilterOp int

// Query operators, mirroring Scooter's Find operators.
const (
	FilterEq FilterOp = iota
	FilterLt
	FilterLe
	FilterGt
	FilterGe
	FilterContains // set field contains value
)

// Filter is one query criterion.
type Filter struct {
	Field string
	Op    FilterOp
	Value Value
}

// Eq builds an equality filter.
func Eq(field string, v Value) Filter { return Filter{Field: field, Op: FilterEq, Value: v} }

// Collection is a named set of documents. docs serves lookups by id and
// seq holds the same documents in ascending id order, so every read that
// returns documents in id order walks seq instead of sorting.
type Collection struct {
	mu      sync.RWMutex
	name    string
	docs    map[ID]Doc
	seq     idSeq
	db      *DB
	indexes map[string]*fieldIndex
	dropped atomic.Bool
}

// slot is one entry of an idSeq: an id and the document stored under it.
// A nil doc is a tombstone left by a removal.
type slot struct {
	id  ID
	doc Doc
}

// idSeq holds documents in ascending id order; the primary order and every
// index posting list are idSeqs. Ids are allocated in increasing order, so
// an insert nearly always appends; an out-of-order id (an allocation race,
// InsertWithID, replay) is placed by binary search. A removal leaves a
// tombstone instead of shifting the tail, and the sequence is compacted
// once tombstones outnumber live entries, so bulk deletes stay linear.
// Readers skip tombstones.
type idSeq struct {
	slots []slot
	dead  int // tombstones in slots
}

// live returns the number of live entries.
func (q *idSeq) live() int { return len(q.slots) - q.dead }

// search returns the position of id's slot, or where it would go, and
// whether a slot (live or tombstone) holds id.
func (q *idSeq) search(id ID) (int, bool) {
	return slices.BinarySearchFunc(q.slots, id, func(s slot, id ID) int { return cmp.Compare(s.id, id) })
}

// after returns the position of the first slot whose id exceeds id.
func (q *idSeq) after(id ID) int {
	i, found := q.search(id)
	if found {
		i++
	}
	return i
}

// put stores doc under id: it appends, inserts in place, revives a
// tombstone, or points a live slot at the new document.
func (q *idSeq) put(id ID, doc Doc) {
	if n := len(q.slots); n == 0 || q.slots[n-1].id < id {
		q.slots = append(q.slots, slot{id, doc})
		return
	}
	i, found := q.search(id)
	switch {
	case !found:
		q.slots = slices.Insert(q.slots, i, slot{id, doc})
	case q.slots[i].doc == nil:
		q.slots[i].doc = doc
		q.dead--
	default:
		q.slots[i].doc = doc
	}
}

// remove tombstones id's slot, compacting once tombstones outnumber live
// entries.
func (q *idSeq) remove(id ID) {
	i, found := q.search(id)
	if !found || q.slots[i].doc == nil {
		return
	}
	q.slots[i].doc = nil
	q.dead++
	if q.dead > q.live() {
		live := make([]slot, 0, q.live())
		for _, s := range q.slots {
			if s.doc != nil {
				live = append(live, s)
			}
		}
		q.slots, q.dead = live, 0
	}
}

// Dropped reports whether the collection has been removed from its
// database. Callers holding a *Collection across operations (e.g. the
// policy compiler's per-site inline caches) use this to detect staleness:
// a dropped name re-created later yields a fresh *Collection.
func (c *Collection) Dropped() bool { return c.dropped.Load() }

// MutationOp identifies the kind of state change a Mutation records.
type MutationOp uint8

// Mutation kinds, covering every write the store performs.
const (
	MutInsert MutationOp = iota + 1
	MutUpdate
	MutDelete
	MutRemoveField
	MutCreateCollection
	MutDropCollection
	MutCreateIndex
)

// Mutation describes one committed state change, in the store's
// serialization order. Doc carries the full document for MutInsert and the
// changed fields for MutUpdate; Field names the target of MutRemoveField
// and MutCreateIndex.
type Mutation struct {
	Op    MutationOp
	Coll  string
	ID    ID
	Doc   Doc
	Field string
}

// WaitFunc blocks until the mutation it was returned for is durable.
type WaitFunc func() error

// Durability receives every mutation the store commits. Append is called
// with the mutated collection's lock held, so the record order equals the
// store's serialization order; implementations must only enqueue (and
// serialise the Doc synchronously — it aliases caller memory) and defer all
// I/O to the returned wait function, which the store invokes after
// releasing the lock and before acknowledging the write.
type Durability interface {
	Append(m Mutation) WaitFunc
}

// DB is an in-memory database: named collections plus an id allocator.
type DB struct {
	mu     sync.RWMutex
	colls  map[string]*Collection
	nextID atomic.Int64

	dur    atomic.Pointer[durabilityBox]
	durErr atomic.Pointer[error]
}

type durabilityBox struct{ d Durability }

// SetDurability attaches a write-ahead logger; every subsequent mutation is
// appended to it before the write is acknowledged. Pass nil to detach.
func (db *DB) SetDurability(d Durability) {
	if d == nil {
		db.dur.Store(nil)
		return
	}
	db.dur.Store(&durabilityBox{d: d})
}

// DurabilityErr returns the first error the durability layer reported, if
// any. Once set, acknowledged writes are no longer guaranteed durable; the
// ORM surfaces this to callers of every later write.
func (db *DB) DurabilityErr() error {
	if p := db.durErr.Load(); p != nil {
		return *p
	}
	return nil
}

// logMutation hands a mutation to the durability layer; callers hold the
// lock covering the mutation. The returned wait must be passed to finish
// after the lock is released.
func (db *DB) logMutation(m Mutation) WaitFunc {
	box := db.dur.Load()
	if box == nil {
		return nil
	}
	return box.d.Append(m)
}

// finish awaits durability of a logged mutation; call with no locks held.
func (db *DB) finish(wait WaitFunc) {
	if wait == nil {
		return
	}
	if err := wait(); err != nil {
		db.durErr.CompareAndSwap(nil, &err)
	}
}

// AdvanceNextID raises the id allocator so future NewID calls never return
// id or anything below it. The WAL uses it when replaying inserts.
func (db *DB) AdvanceNextID(id ID) {
	for {
		cur := db.nextID.Load()
		if int64(id) <= cur || db.nextID.CompareAndSwap(cur, int64(id)) {
			return
		}
	}
}

// Open returns an empty database.
func Open() *DB {
	db := &DB{colls: map[string]*Collection{}}
	db.nextID.Store(1)
	return db
}

// Collection returns (creating if needed) the named collection.
func (db *DB) Collection(name string) *Collection {
	db.mu.RLock()
	if c, ok := db.colls[name]; ok {
		db.mu.RUnlock()
		return c
	}
	db.mu.RUnlock()
	db.mu.Lock()
	if c, ok := db.colls[name]; ok {
		db.mu.Unlock()
		return c
	}
	c := &Collection{name: name, docs: map[ID]Doc{}, db: db}
	db.colls[name] = c
	wait := db.logMutation(Mutation{Op: MutCreateCollection, Coll: name})
	db.mu.Unlock()
	db.finish(wait)
	return c
}

// Lookup returns the named collection without creating it. Convergence
// checks and the shard router's merge paths use it so that probing for a
// collection never mutates the database (Collection creates, and logs a
// WAL record, on first touch).
func (db *DB) Lookup(name string) (*Collection, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.colls[name]
	return c, ok
}

// DropCollection removes a collection and its documents.
func (db *DB) DropCollection(name string) {
	db.mu.Lock()
	var wait WaitFunc
	if c, ok := db.colls[name]; ok {
		c.dropped.Store(true)
		delete(db.colls, name)
		wait = db.logMutation(Mutation{Op: MutDropCollection, Coll: name})
	}
	db.mu.Unlock()
	db.finish(wait)
}

// CollectionNames lists collections in sorted order.
func (db *DB) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewID allocates a fresh document id.
func (db *DB) NewID() ID { return ID(db.nextID.Add(1)) }

// LastID returns the highest id the allocator has handed out (or been
// advanced past). The shard router seeds its cross-shard allocator with
// the max over shards at open.
func (db *DB) LastID() ID { return ID(db.nextID.Load()) }

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a copy of doc, assigning a fresh id, and returns the id.
// When a durability layer is attached, the insert is logged before it is
// acknowledged; a logging failure is reported via DB.DurabilityErr.
func (c *Collection) Insert(doc Doc) ID {
	id := c.db.NewID()
	cp := doc.Clone()
	cp["id"] = id
	c.mu.Lock()
	c.docs[id] = cp
	c.seq.put(id, cp)
	c.indexAdd(id, cp)
	wait := c.db.logMutation(Mutation{Op: MutInsert, Coll: c.name, ID: id, Doc: cp})
	c.mu.Unlock()
	c.db.finish(wait)
	return id
}

// InsertWithID stores a copy of doc under an explicit id; it fails if the
// id is taken.
func (c *Collection) InsertWithID(id ID, doc Doc) error {
	return c.Adopt(id, doc.Clone())
}

// Adopt is InsertWithID without the defensive copy: the collection takes
// ownership of doc, which the caller must not touch afterwards. Recovery
// uses it for documents it has just decoded.
func (c *Collection) Adopt(id ID, doc Doc) error {
	doc["id"] = id
	c.mu.Lock()
	if _, exists := c.docs[id]; exists {
		c.mu.Unlock()
		return fmt.Errorf("store: id %v already exists in %s", id, c.name)
	}
	c.docs[id] = doc
	c.seq.put(id, doc)
	c.indexAdd(id, doc)
	wait := c.db.logMutation(Mutation{Op: MutInsert, Coll: c.name, ID: id, Doc: doc})
	c.mu.Unlock()
	c.db.finish(wait)
	return c.db.DurabilityErr()
}

// Get returns the document with the given id. The document is shared with
// the store and every other reader: the caller must never modify it. It
// stays valid after the call, holding the values it had when read.
func (c *Collection) Get(id ID) (Doc, bool) {
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	return d, ok
}

// Find returns all documents matching every filter, in id order. Like Get,
// it returns the shared stored documents, which the caller must never
// modify. Equality filters on indexed fields probe the index instead of
// scanning; posting lists and the primary sequence are both id-ordered, so
// either path yields id order as it goes.
func (c *Collection) Find(filters ...Filter) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := c.seq.slots
	var out []Doc
	if b, ok := c.indexProbe(filters); ok {
		if b == nil {
			return nil
		}
		slots = b.slots
		if len(filters) == 1 {
			out = make([]Doc, 0, b.live()) // every live posting matches
		}
	}
	for _, s := range slots {
		if s.doc != nil && matchAll(s.doc, filters) {
			out = append(out, s.doc)
		}
	}
	return out
}

// FindAfter returns at most limit documents whose id exceeds after, in
// ascending id order; like Get, the documents are shared and read-only. It
// is the online-backfill scan primitive: documents inserted later with
// higher ids are picked up by subsequent calls, which is exactly what a
// watermark sweep over a live collection needs. A limit <= 0 means no
// bound. It costs a binary search plus the documents it returns.
func (c *Collection) FindAfter(after ID, limit int) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rest := c.seq.slots[c.seq.after(after):]
	n := len(rest)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]Doc, 0, n)
	for _, s := range rest {
		if len(out) == n {
			break
		}
		if s.doc != nil {
			out = append(out, s.doc)
		}
	}
	return out
}

// replace installs next as the document with id in place of prev and
// moves the indexes over; callers hold the write lock. prev itself is left
// untouched for the readers that still hold it.
func (c *Collection) replace(id ID, prev, next Doc) {
	for _, ix := range c.indexes {
		ix.replace(id, prev, next)
	}
	c.docs[id] = next
	c.seq.put(id, next)
}

// UpdateIfAbsent sets field to v on the document with id only when the
// document does not already carry the field, reporting whether it wrote.
// The check and the write are atomic under the collection lock, so a
// backfill sweep using it never clobbers a value a concurrent lazy
// migration (or an application write under the new schema) already
// installed. A missing document is not an error: the backfill races
// foreground deletes, and a deleted document simply no longer needs the
// field.
//
// UpdateIfAbsent logs the write but does not wait for it to become
// durable: the caller passes the returned wait (nil when nothing was
// logged) to DB.Await before it relies on the write, so a batch of writes
// shares one wait instead of paying one each.
func (c *Collection) UpdateIfAbsent(id ID, field string, v Value) (bool, WaitFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[id]
	if !ok {
		return false, nil
	}
	if _, present := d[field]; present {
		return false, nil
	}
	next := withFields(d, Doc{field: v})
	c.replace(id, d, next)
	return true, c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: id, Doc: Doc{field: next[field]}})
}

// Await waits, in order, for logged writes to become durable and returns
// DurabilityErr. Nil waits are skipped. Call it with no collection lock
// held.
func (db *DB) Await(waits ...WaitFunc) error {
	for _, w := range waits {
		db.finish(w)
	}
	return db.DurabilityErr()
}

// Count returns the number of documents matching every filter.
func (c *Collection) Count(filters ...Filter) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots := c.seq.slots
	if b, ok := c.indexProbe(filters); ok {
		if b == nil {
			return 0
		}
		slots = b.slots
	}
	n := 0
	for _, s := range slots {
		if s.doc != nil && matchAll(s.doc, filters) {
			n++
		}
	}
	return n
}

// CountAfter returns the number of documents with id > after. Backfills
// use it for cheap remaining-work gauges: it binary-searches the id
// sequence and touches no document, walking the tail only while removals
// have left tombstones in it.
func (c *Collection) CountAfter(after ID) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i := c.seq.after(after)
	if c.seq.dead == 0 {
		return len(c.seq.slots) - i
	}
	n := 0
	for _, s := range c.seq.slots[i:] {
		if s.doc != nil {
			n++
		}
	}
	return n
}

// Update overwrites the given fields of the document with id. It fails if
// the document does not exist. The stored document is replaced by an
// updated copy; readers holding the old one keep seeing its old values.
func (c *Collection) Update(id ID, fields Doc) error {
	c.mu.Lock()
	d, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("store: no document %v in %s", id, c.name)
	}
	c.replace(id, d, withFields(d, fields))
	wait := c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: id, Doc: fields})
	c.mu.Unlock()
	c.db.finish(wait)
	return c.db.DurabilityErr()
}

// UpdateAll applies an updater function to every document matching the
// filters; the updater returns the fields to overwrite (nil for no change).
// It returns the number of updated documents. Used by migrations to
// populate new fields. The updater receives the shared stored document and
// must not modify it. Documents are visited in id order.
// Durability is per document: each modified document is logged as its own
// update record, so a crash mid-bulk-update recovers a prefix of the
// individual document updates. The records share one lock hold, so they
// are contiguous in the log and the final wait covers them all.
func (c *Collection) UpdateAll(filters []Filter, update func(Doc) Doc) int {
	c.mu.Lock()
	n := 0
	var wait WaitFunc
	for _, s := range c.seq.slots {
		if s.doc == nil || !matchAll(s.doc, filters) {
			continue
		}
		fields := update(s.doc)
		if fields == nil {
			continue
		}
		c.replace(s.id, s.doc, withFields(s.doc, fields))
		wait = c.db.logMutation(Mutation{Op: MutUpdate, Coll: c.name, ID: s.id, Doc: fields})
		n++
	}
	c.mu.Unlock()
	c.db.finish(wait)
	return n
}

// RemoveField deletes a field from every document (schema migration).
// Each document carrying the field is replaced by a copy without it.
func (c *Collection) RemoveField(field string) {
	c.mu.Lock()
	for _, s := range c.seq.slots {
		if _, ok := s.doc[field]; !ok {
			continue
		}
		next := make(Doc, len(s.doc)-1)
		for k, v := range s.doc {
			if k != field {
				next[k] = v
			}
		}
		c.replace(s.id, s.doc, next)
	}
	wait := c.db.logMutation(Mutation{Op: MutRemoveField, Coll: c.name, Field: field})
	c.mu.Unlock()
	c.db.finish(wait)
}

// Delete removes the document with the given id, reporting whether it
// existed.
func (c *Collection) Delete(id ID) bool {
	c.mu.Lock()
	d, ok := c.docs[id]
	if !ok {
		c.mu.Unlock()
		return false
	}
	c.indexRemove(id, d)
	delete(c.docs, id)
	c.seq.remove(id)
	wait := c.db.logMutation(Mutation{Op: MutDelete, Coll: c.name, ID: id})
	c.mu.Unlock()
	c.db.finish(wait)
	return true
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

func matchAll(d Doc, filters []Filter) bool {
	for _, f := range filters {
		if !match(d, f) {
			return false
		}
	}
	return true
}

func match(d Doc, f Filter) bool {
	v, ok := d[f.Field]
	if !ok {
		return false
	}
	switch f.Op {
	case FilterEq:
		return valueEq(v, f.Value)
	case FilterContains:
		set, ok := v.([]Value)
		if !ok {
			return false
		}
		for _, e := range set {
			if valueEq(e, f.Value) {
				return true
			}
		}
		return false
	default:
		c, ok := compareValues(v, f.Value)
		if !ok {
			return false
		}
		switch f.Op {
		case FilterLt:
			return c < 0
		case FilterLe:
			return c <= 0
		case FilterGt:
			return c > 0
		case FilterGe:
			return c >= 0
		}
	}
	return false
}

func valueEq(a, b Value) bool {
	if oa, ok := a.(Optional); ok {
		ob, ok := b.(Optional)
		if !ok {
			return false
		}
		if oa.Present != ob.Present {
			return false
		}
		return !oa.Present || valueEq(oa.Value, ob.Value)
	}
	if c, ok := compareValues(a, b); ok {
		return c == 0
	}
	switch x := a.(type) {
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case ID:
		y, ok := b.(ID)
		return ok && x == y
	}
	return false
}

// compareValues orders two numeric values, compared as float64; ok is
// false for non-numerics and for NaN, which is unordered and equals
// nothing.
func compareValues(a, b Value) (int, bool) {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if !aok || !bok || af != af || bf != bf {
		return 0, false
	}
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	default:
		return 0, true
	}
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}

// MatchAll reports whether the document satisfies every filter.
func MatchAll(d Doc, filters []Filter) bool { return matchAll(d, filters) }
