package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randValue draws from the full value universe: scalars, ids, sets, and
// optionals, with nested sets and options down to a bounded depth.
func randValue(r *rand.Rand, depth int) Value {
	max := 8
	if depth <= 0 {
		max = 6 // leaves only
	}
	switch r.Intn(max) {
	case 0:
		return nil
	case 1:
		return r.Int63n(1000) - 500
	case 2:
		return float64(r.Int63n(1000))/4 - 100
	case 3:
		return r.Intn(2) == 0
	case 4:
		return fmt.Sprintf("s%d", r.Intn(100))
	case 5:
		return ID(r.Int63n(50) + 1)
	case 6:
		n := r.Intn(4)
		set := make([]Value, n)
		for i := range set {
			set[i] = randValue(r, depth-1)
		}
		return set
	default:
		if r.Intn(3) == 0 {
			return None()
		}
		return Some(randValue(r, depth-1))
	}
}

func randDoc(r *rand.Rand) Doc {
	d := Doc{}
	for i, n := 0, r.Intn(6); i < n; i++ {
		d[fmt.Sprintf("f%d", r.Intn(8))] = randValue(r, 2)
	}
	return d
}

// TestSnapshotRestoreProperty round-trips randomized databases over the
// full value universe: restore(snapshot(db)) must re-snapshot to the
// identical bytes. Byte identity is stronger than semantic equality — it is
// what the WAL's recovery-equivalence checks build on.
func TestSnapshotRestoreProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		db := Open()
		for c, nc := 0, 1+r.Intn(3); c < nc; c++ {
			coll := db.Collection(fmt.Sprintf("c%d", c))
			if r.Intn(2) == 0 {
				coll.EnsureIndex(fmt.Sprintf("f%d", r.Intn(8)))
			}
			for i, n := 0, r.Intn(10); i < n; i++ {
				coll.Insert(randDoc(r))
			}
			// Exercise post-insert mutations too.
			for i, n := 0, r.Intn(3); i < n; i++ {
				docs := coll.Find()
				if len(docs) == 0 {
					break
				}
				d := docs[r.Intn(len(docs))]
				switch r.Intn(3) {
				case 0:
					coll.Update(d.ID(), randDoc(r))
				case 1:
					coll.Delete(d.ID())
				default:
					coll.RemoveField(fmt.Sprintf("f%d", r.Intn(8)))
				}
			}
		}

		var first bytes.Buffer
		if err := db.Snapshot(&first); err != nil {
			t.Fatalf("trial %d: snapshot: %v", trial, err)
		}
		restored, err := Restore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		var second bytes.Buffer
		if err := restored.Snapshot(&second); err != nil {
			t.Fatalf("trial %d: re-snapshot: %v", trial, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: snapshot not byte-identical after restore:\n%s\n---\n%s",
				trial, first.String(), second.String())
		}
	}
}

// TestMarshalDocRoundTrip round-trips documents through the durable
// binary codec and checks the result with MarshalDoc, the per-document
// input of the state hashes: recovery must never change a hash.
func TestMarshalDocRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		doc := randDoc(r)
		want, err := MarshalDoc(doc)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		enc, err := AppendDoc(nil, doc)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := DecodeDoc(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got, err := MarshalDoc(back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("doc changed across the binary codec: %s vs %s", want, got)
		}
	}
}

// TestSnapshotConsistentCut races a writer that keeps an invariant across
// two collections (equal counters inserted into both) against snapshots.
// Every restored snapshot must satisfy the invariant: the cut never splits
// a writer's pair of mutations across collections it already locked, i.e.
// Snapshot sees a point-in-time state. The writer works in bounded rounds:
// each round it is released, inserts a fixed number of pairs while the
// snapshot runs, and reports back, so the test terminates by construction.
func TestSnapshotConsistentCut(t *testing.T) {
	db := Open()
	const rounds, pairsPerRound = 30, 200
	a, b := db.Collection("a"), db.Collection("b")
	start, done := make(chan struct{}), make(chan struct{})
	defer close(start)
	go func() {
		seq := int64(0)
		for range start {
			// Appends seq to a, then seq to b. Invariant for any
			// consistent cut: len(a) >= len(b) and the common prefix
			// matches.
			for i := 0; i < pairsPerRound; i++ {
				a.Insert(Doc{"seq": seq})
				b.Insert(Doc{"seq": seq})
				seq++
			}
			done <- struct{}{}
		}
	}()

	for round := 0; round < rounds; round++ {
		start <- struct{}{}
		var buf bytes.Buffer
		err := db.Snapshot(&buf)
		<-done
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		cut, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		na, nb := cut.Collection("a").Len(), cut.Collection("b").Len()
		if nb > na {
			t.Fatalf("inconsistent cut: b has %d docs, a only %d", nb, na)
		}
		if na-nb > 1 {
			// The writer holds at most one pair open at a time, so a
			// consistent cut can only be one insert ahead.
			t.Fatalf("cut split the writer stream: a=%d b=%d", na, nb)
		}
	}
}
