package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"scooter/internal/store"
)

// readDir maps every file in dir to its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestOpenRefusesOldFormat builds directories in the JSON-era layout (a
// SCWAL001 segment of JSON records, a snap-*.json snapshot) and checks that
// Open names the offending file and leaves every file as it was — the
// binary decoders would otherwise read it all as a torn tail and truncate
// it away.
func TestOpenRefusesOldFormat(t *testing.T) {
	oldSegment := func(seg byte) []byte {
		b := append([]byte("SCWAL001"), seg, 0, 0, 0, 0, 0, 0, 0)
		b = AppendFrame(b, []byte(`{"l":1,"o":"mkc","c":"users"}`))
		return AppendFrame(b, []byte(`{"l":2,"o":"ins","c":"users","i":2,"d":{"name":{"t":"s","v":"ann"}}}`))
	}
	layouts := map[string]map[string][]byte{
		"segment only": {"wal-00000001.log": oldSegment(1)},
		"snapshot and segment": {
			"snap-00000003.json":     []byte(`{"version":1,"nextId":2,"collections":{}}`),
			"wal-00000003.log":       oldSegment(3),
			"snap-00000004.json.tmp": []byte(`{"vers`),
		},
	}
	for name, files := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for f, b := range files {
				if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := Open(dir, Options{})
			var fe *FormatError
			if !errors.Is(err, ErrFormat) || !errors.As(err, &fe) {
				t.Fatalf("Open = %v, want a *FormatError wrapping ErrFormat", err)
			}
			if _, ok := files[fe.File]; !ok {
				t.Fatalf("error names %q, not a file of the directory", fe.File)
			}
			got := readDir(t, dir)
			if len(got) != len(files) {
				t.Fatalf("directory holds %d files after Open, want %d", len(got), len(files))
			}
			for f, b := range files {
				if !bytes.Equal(got[f], b) {
					t.Fatalf("%s changed by a refused Open", f)
				}
			}
		})
	}
}

// TestNonFiniteFloatsKeepLogHealthy: NaN and ±Inf have no JSON form, but
// the log must still accept them without failing, compact them, and
// recover them with their exact bits, -0 included.
func TestNonFiniteFloatsKeepLogHealthy(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"nan": math.NaN(), "inf": math.Inf(1), "ninf": math.Inf(-1), "negzero": math.Copysign(0, -1),
	}
	doc := store.Doc{}
	for k, v := range want {
		doc[k] = v
	}
	c := db.Collection("m")
	if err := c.InsertWithID(5, doc); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := c.Update(5, store.Doc{"set": []store.Value{math.NaN()}}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := c.InsertWithID(6, store.Doc{"nan": math.NaN()}); err != nil {
		t.Fatalf("insert after compaction: %v", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("log failed: %v", err)
	}
	mustClose(t, l)

	l2, db2, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l2)
	got, ok := db2.Collection("m").Get(5)
	if !ok {
		t.Fatal("document lost")
	}
	for k, v := range want {
		if g, ok := got[k].(float64); !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s: recovered %v, want bits of %v", k, got[k], v)
		}
	}
	if set, _ := got["set"].([]store.Value); len(set) != 1 || !math.IsNaN(set[0].(float64)) {
		t.Errorf("set: recovered %v", got["set"])
	}
	if d, ok := db2.Collection("m").Get(6); !ok || !math.IsNaN(d["nan"].(float64)) {
		t.Errorf("post-compaction insert: recovered %v", d)
	}
}

// TestCompactConsistentCut races a writer that keeps an invariant across
// two collections against compactions, in bounded rounds as in
// store.TestSnapshotConsistentCut, and checks every snapshot file the
// compactions write.
func TestCompactConsistentCut(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{SyncEvery: -1, CompactAfterBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, l)
	const rounds, pairsPerRound = 30, 200
	a, b := db.Collection("a"), db.Collection("b")
	start, done := make(chan struct{}), make(chan struct{})
	defer close(start)
	go func() {
		seq := int64(0)
		for range start {
			for i := 0; i < pairsPerRound; i++ {
				a.Insert(store.Doc{"seq": seq})
				b.Insert(store.Doc{"seq": seq})
				seq++
			}
			done <- struct{}{}
		}
	}()

	for round := 0; round < rounds; round++ {
		start <- struct{}{}
		err := l.Compact()
		<-done
		if err != nil {
			t.Fatalf("compact: %v", err)
		}
		_, snaps, err := scanDir(dir)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots after compaction: %v (%v)", snaps, err)
		}
		var data []byte
		for _, name := range snaps {
			if data, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		cut, err := decodeSnapshot(data, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		na, nb := cut.Collection("a").Len(), cut.Collection("b").Len()
		if nb > na {
			t.Fatalf("inconsistent cut: b has %d docs, a only %d", nb, na)
		}
		if na-nb > 1 {
			t.Fatalf("cut split the writer stream: a=%d b=%d", na, nb)
		}
	}
}

// TestSnapshotDamageNeverMisread truncates a compacted snapshot at, and
// flips a byte at, every offset. Open must fail: the snapshot was written
// atomically, so damage is never a torn tail to recover past, and it must
// never restore a state other than the one snapshotted.
func TestSnapshotDamageNeverMisread(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	users := db.Collection("users")
	users.EnsureIndex("name")
	for i := 0; i < 4; i++ {
		users.Insert(store.Doc{"name": string(rune('a' + i)), "age": int64(i), "tags": []store.Value{"x", store.Some(1.5)}})
	}
	db.Collection("empty")
	db.Collection("posts").Insert(store.Doc{"body": "hello"})
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, db)
	mustClose(t, l)
	pristine := readDir(t, dir)
	var snap string
	for name := range pristine {
		if filepath.Ext(name) == ".bin" {
			snap = name
		}
	}
	data := pristine[snap]

	trial := func(kind string, off int, damaged []byte) {
		tdir := t.TempDir()
		for name, b := range pristine {
			if name == snap {
				b = damaged
			}
			if err := os.WriteFile(filepath.Join(tdir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, db, err := Open(tdir, Options{CompactAfterBytes: -1})
		if err != nil {
			return
		}
		defer mustClose(t, l)
		if got := snapshotBytes(t, db); !bytes.Equal(got, want) {
			t.Fatalf("%s at %d: damaged snapshot restored a different state", kind, off)
		}
		t.Errorf("%s at %d: damaged snapshot accepted", kind, off)
	}
	for off := 0; off < len(data); off++ {
		trial("truncation", off, data[:off])
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0xFF
		trial("flip", off, flipped)
	}
	trial("trailing byte", len(data), append(append([]byte(nil), data...), 0))
}
