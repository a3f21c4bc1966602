package store

import (
	"math/rand"
	"sync"
	"testing"
)

// ascendingLive checks that got lists strictly ascending ids, each of them
// live.
func ascendingLive(t *testing.T, what string, got []ID, live map[ID]bool) {
	t.Helper()
	for i, id := range got {
		if i > 0 && id <= got[i-1] {
			t.Fatalf("%s: id %v follows %v", what, id, got[i-1])
		}
		if !live[id] {
			t.Fatalf("%s: yields %v, which is not live", what, id)
		}
	}
}

// TestReadsYieldAscendingIDs inserts ids out of order (explicit ids in
// shuffled order, then concurrent inserts racing for the lock), deletes and
// re-inserts some, and requires every id-ordered read — indexed and
// scanning Find, a FindAfter walk, CutView.Each — to yield strictly
// ascending, live ids, all of them where the read is unfiltered.
func TestReadsYieldAscendingIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := Open()
	c := db.Collection("T")
	c.EnsureIndex("k")
	live := map[ID]bool{}
	explicit := rng.Perm(500)
	for _, i := range explicit {
		id := ID(10_000 + 3*i)
		if err := c.InsertWithID(id, Doc{"k": int64(i % 3)}); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := c.Insert(Doc{"k": int64((g + i) % 3)})
				mu.Lock()
				live[id] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	var deleted []ID
	for id := range live {
		if rng.Intn(3) == 0 {
			if !c.Delete(id) {
				t.Fatalf("delete %v: missing", id)
			}
			delete(live, id)
			deleted = append(deleted, id)
		}
	}
	for _, id := range deleted[:len(deleted)/2] {
		if err := c.InsertWithID(id, Doc{"k": int64(rng.Intn(3))}); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if err := c.checkIndexInvariant(); err != nil {
		t.Fatal(err)
	}

	all := ids(c.Find())
	ascendingLive(t, "scan Find", all, live)
	if len(all) != len(live) {
		t.Fatalf("scan Find returned %d ids, %d are live", len(all), len(live))
	}
	for k := int64(0); k < 3; k++ {
		ascendingLive(t, "indexed Find", ids(c.Find(Eq("k", k))), live)
	}
	var walk []ID
	for w := Nil; ; {
		batch := c.FindAfter(w, 37)
		if len(batch) == 0 {
			break
		}
		walk = append(walk, ids(batch)...)
		w = batch[len(batch)-1].ID()
	}
	ascendingLive(t, "FindAfter walk", walk, live)
	if len(walk) != len(live) {
		t.Fatalf("FindAfter walk returned %d ids, %d are live", len(walk), len(live))
	}
	var each []ID
	err := db.ReadCut(nil, func(_ int64, colls []CutView) error {
		return colls[0].Each(func(id ID, _ Doc) error {
			each = append(each, id)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	ascendingLive(t, "CutView.Each", each, live)
	if len(each) != len(live) {
		t.Fatalf("CutView.Each yielded %d ids, %d are live", len(each), len(live))
	}
	if got, want := c.CountAfter(all[len(all)/2]), len(all)-len(all)/2-1; got != want {
		t.Fatalf("CountAfter = %d, want %d", got, want)
	}
}

// TestBatchReadsAllocateOnlyTheirResult pins the cost of the backfill
// primitives on a 20k-document collection: FindAfter allocates its result
// and nothing else, and CountAfter allocates nothing, tombstones or not.
func TestBatchReadsAllocateOnlyTheirResult(t *testing.T) {
	c := Open().Collection("T")
	var all []ID
	for i := 0; i < 20_000; i++ {
		all = append(all, c.Insert(Doc{"n": int64(i)}))
	}
	w := all[len(all)/2]
	check := func(state string) {
		t.Helper()
		if a := testing.AllocsPerRun(20, func() { c.FindAfter(w, 256) }); a > 1 {
			t.Errorf("%s: FindAfter allocates %.0f times per call, want 1", state, a)
		}
		if a := testing.AllocsPerRun(20, func() { c.CountAfter(w) }); a != 0 {
			t.Errorf("%s: CountAfter allocates %.0f times per call, want 0", state, a)
		}
	}
	check("no tombstones")
	for _, id := range all[len(all)/2:][:1000] {
		c.Delete(id)
	}
	check("with tombstones")
	if got, want := c.CountAfter(w), len(all)/2-1000; got != want {
		t.Fatalf("CountAfter = %d, want %d", got, want)
	}
}

// TestDeleteAllCompacts deletes every document, in random order, and
// requires the id sequence and posting lists to shrink with the live
// count rather than keep every tombstone.
func TestDeleteAllCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := Open().Collection("T")
	c.EnsureIndex("k")
	var all []ID
	for i := 0; i < 5000; i++ {
		all = append(all, c.Insert(Doc{"k": i%2 == 0}))
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i, id := range all {
		c.Delete(id)
		if i%500 == 0 {
			if err := c.checkIndexInvariant(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if n := len(c.seq.slots); n != 0 {
		t.Fatalf("empty collection keeps %d slots", n)
	}
	if n := len(c.indexes["k"].buckets); n != 0 {
		t.Fatalf("empty collection keeps %d index buckets", n)
	}
}
