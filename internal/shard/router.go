package shard

import (
	"sync"
	"sync/atomic"

	"scooter/internal/eval"
	"scooter/internal/obs"
	"scooter/internal/orm"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Router fronts N shard databases: it allocates globally unique document
// ids, routes by-id operations to the owner shard's policy-enforcing ORM
// connection, and fans filter queries out across every shard, merging the
// per-shard results (each already in id order) into one id-ordered list.
//
// The router holds no document state of its own. Its only mutable state is
// the id allocator, which is recovered at construction as the maximum id
// any shard has ever allocated — ids lost to a crash are simply never
// reused, exactly like a single database's allocator.
type Router struct {
	dbs     []*store.DB
	conns   []*orm.Conn
	nextID  atomic.Int64
	metrics *obs.ShardMetrics
}

// NewRouter builds a router over the given shard databases and their ORM
// connections (conns[i] must be bound to dbs[i]). metrics may be nil.
func NewRouter(dbs []*store.DB, conns []*orm.Conn, metrics *obs.ShardMetrics) *Router {
	if len(dbs) == 0 || len(dbs) != len(conns) {
		panic("shard: router needs one connection per shard database")
	}
	r := &Router{dbs: dbs, conns: conns, metrics: metrics}
	max := int64(1)
	for _, db := range dbs {
		if last := int64(db.LastID()); last > max {
			max = last
		}
	}
	r.nextID.Store(max)
	return r
}

// N returns the number of shards.
func (r *Router) N() int { return len(r.dbs) }

// Owner returns the shard owning id.
func (r *Router) Owner(id store.ID) int { return Owner(id, len(r.dbs)) }

// DB returns shard i's database.
func (r *Router) DB(i int) *store.DB { return r.dbs[i] }

// Conn returns shard i's ORM connection.
func (r *Router) Conn(i int) *orm.Conn { return r.conns[i] }

// NewID allocates a fresh globally unique document id and advances the
// owner shard's local allocator past it, so a compaction snapshot taken on
// that shard never records an allocator below an id it stores.
func (r *Router) NewID() store.ID {
	id := store.ID(r.nextID.Add(1))
	r.dbs[Owner(id, len(r.dbs))].AdvanceNextID(id)
	return id
}

// Advance raises the router's allocator (and the owner shard's) so future
// NewID calls never return id or below. Explicit-id inserts use it to keep
// the allocator ahead of caller-chosen ids.
func (r *Router) Advance(id store.ID) {
	for {
		cur := r.nextID.Load()
		if int64(id) <= cur || r.nextID.CompareAndSwap(cur, int64(id)) {
			break
		}
	}
	r.dbs[Owner(id, len(r.dbs))].AdvanceNextID(id)
}

// AsPrinc returns a handle performing routed operations on behalf of p.
// The per-shard ORM handles are resolved once here, so each routed
// operation is a slice index away from the owner shard's policy gate.
func (r *Router) AsPrinc(p eval.Principal) *Princ {
	princs := make([]*orm.Princ, len(r.conns))
	for i, c := range r.conns {
		princs[i] = c.AsPrinc(p)
	}
	return &Princ{r: r, princs: princs}
}

// Princ performs policy-checked operations for one principal across the
// shard set. Every operation is enforced by the owner shard's ORM — the
// router never touches a document around the policy gate.
type Princ struct {
	r      *Router
	princs []*orm.Princ
}

// Insert creates an instance on the owner shard of a freshly allocated id.
func (p *Princ) Insert(model string, fields store.Doc) (store.ID, error) {
	id := p.r.NewID()
	owner := Owner(id, len(p.princs))
	p.r.metrics.RecordRouted(owner)
	if err := p.princs[owner].InsertWithID(model, id, fields); err != nil {
		return store.Nil, err
	}
	return id, nil
}

// InsertWithID creates an instance under a caller-chosen id on its owner
// shard. Deterministic harnesses (the walfault sweep, the differential
// test) use it so the same workload lands on the same ids in every world.
func (p *Princ) InsertWithID(model string, id store.ID, fields store.Doc) error {
	p.r.Advance(id)
	owner := Owner(id, len(p.princs))
	p.r.metrics.RecordRouted(owner)
	return p.princs[owner].InsertWithID(model, id, fields)
}

// FindByID fetches one instance from its owner shard.
func (p *Princ) FindByID(model string, id store.ID) (*orm.Object, error) {
	owner := Owner(id, len(p.princs))
	p.r.metrics.RecordRouted(owner)
	return p.princs[owner].FindByID(model, id)
}

// Update overwrites fields of the instance on its owner shard.
func (p *Princ) Update(model string, id store.ID, fields store.Doc) error {
	owner := Owner(id, len(p.princs))
	p.r.metrics.RecordRouted(owner)
	return p.princs[owner].Update(model, id, fields)
}

// Delete removes the instance from its owner shard.
func (p *Princ) Delete(model string, id store.ID) error {
	owner := Owner(id, len(p.princs))
	p.r.metrics.RecordRouted(owner)
	return p.princs[owner].Delete(model, id)
}

// Find runs a filter query. An id-equality filter routes to the single
// owner shard; anything else fans out to every shard concurrently and
// merges the per-shard results (each already in ascending id order) into
// one id-ordered list, so the merged result is deterministic and equal to
// what one unsharded database holding all the documents would return.
func (p *Princ) Find(model string, filters ...store.Filter) ([]*orm.Object, error) {
	if id, ok := routedID(filters); ok {
		owner := Owner(id, len(p.princs))
		p.r.metrics.RecordRouted(owner)
		return p.princs[owner].Find(model, filters...)
	}
	n := len(p.princs)
	p.r.metrics.RecordFanout(n)
	if n == 1 {
		return p.princs[0].Find(model, filters...)
	}
	results := make([][]*orm.Object, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range p.princs {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.princs[i].Find(model, filters...)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeByID(results, func(o *orm.Object) store.ID { return o.ID }), nil
}

// routedID recognises a query pinned to one document: an equality filter
// on the id field with an ID value.
func routedID(filters []store.Filter) (store.ID, bool) {
	for _, f := range filters {
		if f.Field == schema.IDFieldName && f.Op == store.FilterEq {
			if id, ok := f.Value.(store.ID); ok {
				return id, true
			}
		}
	}
	return store.Nil, false
}

// mergeByID k-way-merges per-shard result lists, each in ascending id
// order, into one ascending list. Ties (which only arise if callers reuse
// ids across shards) break by shard index, keeping the merge total.
func mergeByID[T any](lists [][]T, id func(T) store.ID) []T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]T, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || id(l[idx[i]]) < id(lists[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}
