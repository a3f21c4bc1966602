package store

import (
	"fmt"
	"reflect"
)

// checkIndexInvariant validates a collection's derived structures: its id
// sequence and every index posting list hold live documents in strictly
// ascending id order, each slot pointing at the stored document; every
// index files each document under the key of its value, or as unkeyed,
// exactly once.
func (c *Collection) checkIndexInvariant() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live, err := checkSeq(&c.seq, c.docs)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if live != len(c.docs) {
		return fmt.Errorf("primary holds %d docs, collection has %d", live, len(c.docs))
	}
	for field, ix := range c.indexes {
		count := 0
		for k, b := range ix.buckets {
			n, err := checkSeq(b, c.docs)
			if err != nil {
				return fmt.Errorf("index %s key %v: %w", field, k, err)
			}
			if n == 0 {
				return fmt.Errorf("index %s keeps an empty bucket for %v", field, k)
			}
			for _, s := range b.slots {
				if got, ok := ix.key(s.doc); s.doc != nil && (!ok || got != k) {
					return fmt.Errorf("index %s files %v under %v, its value keys as %v", field, s.id, k, got)
				}
			}
			count += n
		}
		for id := range ix.unkeyed {
			d, ok := c.docs[id]
			if !ok {
				return fmt.Errorf("index %s keeps deleted %v unkeyed", field, id)
			}
			if _, keyed := ix.key(d); keyed {
				return fmt.Errorf("index %s keeps keyable %v unkeyed", field, id)
			}
		}
		count += len(ix.unkeyed)
		if count != len(c.docs) {
			return fmt.Errorf("index %s covers %d docs, collection has %d", field, count, len(c.docs))
		}
	}
	return nil
}

// checkSeq validates one idSeq against the stored documents and returns its
// live count.
func checkSeq(q *idSeq, docs map[ID]Doc) (int, error) {
	dead := 0
	for i, s := range q.slots {
		if i > 0 && s.id <= q.slots[i-1].id {
			return 0, fmt.Errorf("id %v follows %v", s.id, q.slots[i-1].id)
		}
		if s.doc == nil {
			dead++
			continue
		}
		d, ok := docs[s.id]
		if !ok || reflect.ValueOf(d).UnsafePointer() != reflect.ValueOf(s.doc).UnsafePointer() {
			return 0, fmt.Errorf("slot %v does not hold the stored document", s.id)
		}
	}
	if dead != q.dead {
		return 0, fmt.Errorf("%d tombstones, %d counted", dead, q.dead)
	}
	if q.dead > q.live() {
		return 0, fmt.Errorf("%d tombstones outnumber %d live entries", q.dead, q.live())
	}
	return q.live(), nil
}
