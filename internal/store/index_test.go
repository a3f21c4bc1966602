package store

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestIndexedFindMatchesScan(t *testing.T) {
	mk := func(indexed bool) *Collection {
		db := Open()
		c := db.Collection("User")
		if indexed {
			c.EnsureIndex("name")
			c.EnsureIndex("age")
		}
		return c
	}
	seed := func(c *Collection, rng *rand.Rand) []ID {
		var ids []ID
		for i := 0; i < 200; i++ {
			ids = append(ids, c.Insert(Doc{
				"name": fmt.Sprintf("n%d", rng.Intn(10)),
				"age":  int64(rng.Intn(5)),
			}))
		}
		return ids
	}
	indexed, plain := mk(true), mk(false)
	seed(indexed, rand.New(rand.NewSource(1)))
	seed(plain, rand.New(rand.NewSource(1)))

	queries := [][]Filter{
		{Eq("name", "n3")},
		{Eq("name", "n3"), Eq("age", int64(2))},
		{Eq("name", "missing")},
		{Eq("age", int64(0))},
		{{Field: "age", Op: FilterGe, Value: int64(3)}}, // non-eq: scan path
		{Eq("name", "n1"), {Field: "age", Op: FilterLt, Value: int64(4)}},
	}
	for _, q := range queries {
		a, b := indexed.Find(q...), plain.Find(q...)
		if len(a) != len(b) {
			t.Fatalf("query %v: indexed %d, scan %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID() != b[i].ID() {
				t.Fatalf("query %v: result %d differs", q, i)
			}
		}
		if indexed.Count(q...) != plain.Count(q...) {
			t.Fatalf("query %v: counts differ", q)
		}
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	db := Open()
	c := db.Collection("User")
	c.EnsureIndex("team")
	rng := rand.New(rand.NewSource(2))
	var ids []ID
	for i := 0; i < 100; i++ {
		ids = append(ids, c.Insert(Doc{"team": int64(rng.Intn(4))}))
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, c.Insert(Doc{"team": int64(rng.Intn(4))}))
		case 1:
			id := ids[rng.Intn(len(ids))]
			c.Update(id, Doc{"team": int64(rng.Intn(4))})
		case 2:
			id := ids[rng.Intn(len(ids))]
			c.Delete(id)
		case 3:
			team := int64(rng.Intn(4))
			want := 0
			for _, d := range c.Find() {
				if d["team"] == team {
					want++
				}
			}
			if got := c.Count(Eq("team", team)); got != want {
				t.Fatalf("iter %d: indexed count %d, scan %d", i, got, want)
			}
		}
		if err := c.checkIndexInvariant(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
}

func TestIndexBackfillAndRemoveField(t *testing.T) {
	db := Open()
	c := db.Collection("User")
	for i := 0; i < 20; i++ {
		c.Insert(Doc{"tag": fmt.Sprintf("t%d", i%3)})
	}
	// Index installed after data exists must backfill.
	c.EnsureIndex("tag")
	if got := c.Count(Eq("tag", "t0")); got != 7 {
		t.Fatalf("t0 count: %d", got)
	}
	// Removing the field leaves documents findable (nothing matches).
	c.RemoveField("tag")
	if got := c.Count(Eq("tag", "t0")); got != 0 {
		t.Fatalf("after removal: %d", got)
	}
	if err := c.checkIndexInvariant(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Indexes()); got != 1 {
		t.Fatalf("indexes: %d", got)
	}
}

func TestEnsureIndexIdempotentAndIdNoop(t *testing.T) {
	db := Open()
	c := db.Collection("User")
	c.EnsureIndex("x")
	c.EnsureIndex("x")
	c.EnsureIndex("id")
	if got := len(c.Indexes()); got != 1 {
		t.Fatalf("indexes: %v", c.Indexes())
	}
}

func BenchmarkFindEq_Scan(b *testing.B) {
	db := Open()
	c := db.Collection("User")
	for i := 0; i < 10000; i++ {
		c.Insert(Doc{"team": int64(i % 100)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(c.Find(Eq("team", int64(i%100)))); got != 100 {
			b.Fatalf("got %d", got)
		}
	}
}
