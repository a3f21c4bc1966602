package store

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchSink []Doc

// BenchmarkFindIndexed probes an equality index whose posting lists hold
// 100 of 10k documents each.
func BenchmarkFindIndexed(b *testing.B) {
	c := Open().Collection("User")
	c.EnsureIndex("team")
	for i := 0; i < 10_000; i++ {
		c.Insert(Doc{"team": int64(i % 100)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Find(Eq("team", int64(i%100)))
		if len(benchSink) != 100 {
			b.Fatalf("got %d", len(benchSink))
		}
	}
}

// BenchmarkFindAfter sweeps a collection in 256-document batches, the
// online backfill's read pattern, wrapping around at the end.
func BenchmarkFindAfter(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			c := Open().Collection("T")
			for i := 0; i < n; i++ {
				c.Insert(Doc{"n": int64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			w := Nil
			for i := 0; i < b.N; i++ {
				benchSink = c.FindAfter(w, 256)
				if len(benchSink) == 0 {
					w = Nil
					continue
				}
				w = benchSink[len(benchSink)-1].ID()
			}
		})
	}
}

// BenchmarkDeleteAll deletes every document of an indexed 20k-document
// collection in random order; one iteration is the whole collection, so a
// delete that shifted the id sequence or a posting list would show as
// quadratic growth here.
func BenchmarkDeleteAll(b *testing.B) {
	const n = 20_000
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := Open().Collection("T")
		c.EnsureIndex("k")
		ids := make([]ID, n)
		for j := range ids {
			ids[j] = c.Insert(Doc{"k": j%2 == 0})
		}
		rng.Shuffle(n, func(x, y int) { ids[x], ids[y] = ids[y], ids[x] })
		b.StartTimer()
		for _, id := range ids {
			c.Delete(id)
		}
	}
}
