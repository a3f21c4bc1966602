package store

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEq states the store's equality independently of valueEq: numerics
// compare as float64 (NaN equals nothing, -0 equals +0); bools, strings and
// IDs by type and value; Optionals by presence and content; sets and nil
// equal nothing.
func refEq(a, b Value) bool {
	if fa, ok := refNum(a); ok {
		fb, ok := refNum(b)
		return ok && fa == fb
	}
	switch x := a.(type) {
	case bool, string, ID:
		return a == b
	case Optional:
		y, ok := b.(Optional)
		return ok && x.Present == y.Present && (!x.Present || refEq(x.Value, y.Value))
	}
	return false
}

func refNum(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// equalityUniverse mixes the values whose equality the index and the scan
// must agree on: int64 and float64 forms of one number, NaN, both zeros,
// integers beyond float64's exact range, strings, IDs, bools, sets,
// Optionals and nil.
var equalityUniverse = []Value{
	int64(0), int64(1), int64(-1), float64(0), math.Copysign(0, -1), float64(1), float64(1.5),
	math.NaN(), math.Inf(1), int64(1 << 53), int64(1<<53 + 1), float64(1 << 53),
	"", "a", "1", ID(1), ID(2), true, false,
	[]Value{int64(1)}, []Value{}, Some(int64(1)), Some(math.NaN()), None(), nil,
}

func ids(docs []Doc) []ID {
	out := make([]ID, len(docs))
	for i, d := range docs {
		out[i] = d.ID()
	}
	return out
}

// TestEqualityIndexScanGetAgree applies seeded random inserts, updates and
// deletes to an indexed and an unindexed collection holding the same
// documents. Every equality probe must return the same ids through the
// index, through a scan, and through a filter over Get, and the index
// invariant must hold after every step.
func TestEqualityIndexScanGetAgree(t *testing.T) {
	u := equalityUniverse
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open()
		indexed, plain := db.Collection("Indexed"), db.Collection("Plain")
		indexed.EnsureIndex("v")
		var all []ID // every id ever inserted
		doc := func() Doc {
			if rng.Intn(8) == 0 {
				return Doc{"w": int64(1)} // v missing
			}
			return Doc{"v": u[rng.Intn(len(u))]}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(all) == 0:
				d := doc()
				id := indexed.Insert(d)
				if err := plain.InsertWithID(id, d); err != nil {
					t.Fatal(err)
				}
				all = append(all, id)
			case op < 8:
				id, d := all[rng.Intn(len(all))], Doc{"v": u[rng.Intn(len(u))]}
				errI, errP := indexed.Update(id, d), plain.Update(id, d)
				if (errI == nil) != (errP == nil) {
					t.Fatalf("seed %d step %d: update %v: indexed %v, plain %v", seed, step, id, errI, errP)
				}
			default:
				id := all[rng.Intn(len(all))]
				if indexed.Delete(id) != plain.Delete(id) {
					t.Fatalf("seed %d step %d: delete %v disagrees", seed, step, id)
				}
			}
			if err := indexed.checkIndexInvariant(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%10 != 9 {
				continue
			}
			for _, p := range u {
				var want []ID
				for _, id := range all {
					if d, ok := indexed.Get(id); ok {
						if v, ok := d["v"]; ok && refEq(v, p) {
							want = append(want, id)
						}
					}
				}
				gotI, gotP := ids(indexed.Find(Eq("v", p))), ids(plain.Find(Eq("v", p)))
				if !slices.Equal(gotI, want) || !slices.Equal(gotP, want) {
					t.Fatalf("seed %d step %d: Eq(v, %#v): indexed %v, scan %v, Get filter %v", seed, step, p, gotI, gotP, want)
				}
				if n := indexed.Count(Eq("v", p)); n != len(want) {
					t.Fatalf("seed %d step %d: Count(Eq(v, %#v)) = %d, want %d", seed, step, p, n, len(want))
				}
			}
		}
	}
}

// TestNaNAndMixedNumerics pins the cases where an index and a scan can
// part ways: NaN must match no equality or ordering probe and must not
// leak index entries when its document changes, and int64(1) and
// float64(1) must be found together on both paths.
func TestNaNAndMixedNumerics(t *testing.T) {
	for _, withIndex := range []bool{false, true} {
		c := Open().Collection("N")
		if withIndex {
			c.EnsureIndex("n")
		}
		nan := c.Insert(Doc{"n": math.NaN()})
		c.Insert(Doc{"n": int64(1)})
		c.Insert(Doc{"n": float64(1)})
		if got := len(c.Find(Eq("n", 1.0))); got != 2 {
			t.Errorf("index %v: Eq(n, 1.0) found %d docs, want 2", withIndex, got)
		}
		if got := len(c.Find(Eq("n", int64(1)))); got != 2 {
			t.Errorf("index %v: Eq(n, int64(1)) found %d docs, want 2", withIndex, got)
		}
		if got := len(c.Find(Eq("n", math.NaN()))); got != 0 {
			t.Errorf("index %v: Eq(n, NaN) found %d docs, want 0", withIndex, got)
		}
		for _, op := range []FilterOp{FilterLe, FilterGe} {
			if got := len(c.Find(Filter{Field: "n", Op: op, Value: math.NaN()})); got != 0 {
				t.Errorf("index %v: op %d against NaN found %d docs, want 0", withIndex, op, got)
			}
			if got := len(c.Find(Filter{Field: "n", Op: op, Value: 1.0})); got != 2 {
				t.Errorf("index %v: op %d against 1.0 found %d docs, want 2", withIndex, op, got)
			}
		}
		if err := c.Update(nan, Doc{"n": math.NaN()}); err != nil {
			t.Fatal(err)
		}
		if err := c.checkIndexInvariant(); err != nil {
			t.Errorf("index %v: after updating the NaN document: %v", withIndex, err)
		}
	}
}
