package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"scooter/internal/store"
)

// collect reads n frames from the tail with a test deadline.
func collect(t *testing.T, tl *Tail, n int) []Frame {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	frames := make([]Frame, 0, n)
	for len(frames) < n {
		fr, err := tl.Next(stop)
		if err != nil {
			t.Fatalf("tail next (have %d/%d): %v", len(frames), n, err)
		}
		frames = append(frames, fr)
	}
	return frames
}

func TestTailReadsHistoryAndFollowsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations mid-stream.
	l, db, err := Open(dir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	users := db.Collection("users")
	for i := 0; i < 10; i++ {
		users.Insert(store.Doc{"name": fmt.Sprintf("u%d", i)})
	}

	tl, err := l.TailFrom(1)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tl.Close()
	frames := collect(t, tl, int(l.DurableLSN()))
	for i, fr := range frames {
		if fr.LSN != uint64(i+1) {
			t.Fatalf("frame %d has LSN %d", i, fr.LSN)
		}
		if _, err := ParseFrame(fr.Data); err != nil {
			t.Fatalf("frame %d does not reparse: %v", i, err)
		}
	}

	// Live follow: appends made after the tail caught up must flow through,
	// across at least one more rotation.
	before := l.DurableLSN()
	for i := 0; i < 20; i++ {
		users.Insert(store.Doc{"name": fmt.Sprintf("v%d", i), "pad": "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"})
	}
	after := l.DurableLSN()
	if after <= before {
		t.Fatal("durable watermark did not advance")
	}
	live := collect(t, tl, int(after-before))
	if live[0].LSN != before+1 || live[len(live)-1].LSN != after {
		t.Fatalf("live frames cover [%d,%d], want [%d,%d]",
			live[0].LSN, live[len(live)-1].LSN, before+1, after)
	}
}

func TestTailFromMidHistorySkipsOlderRecords(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	for i := 0; i < 12; i++ {
		db.Collection("users").Insert(store.Doc{"i": int64(i)})
	}
	last := l.DurableLSN()
	from := last - 3
	tl, err := l.TailFrom(from)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tl.Close()
	frames := collect(t, tl, int(last-from+1))
	if frames[0].LSN != from {
		t.Fatalf("first frame LSN %d, want %d", frames[0].LSN, from)
	}
}

func TestTailGatesOnDurability(t *testing.T) {
	dir := t.TempDir()
	// SyncEvery < 0: nothing is durable until an explicit Sync.
	l, db, err := Open(dir, Options{SyncEvery: -1, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	tl, err := l.TailFrom(1)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tl.Close()

	db.Collection("users").Insert(store.Doc{"name": "alice"})
	stop := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })
	if _, err := tl.Next(stop); err != ErrTailStopped {
		t.Fatalf("tail yielded an unsynced record (err=%v)", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	frames := collect(t, tl, int(l.DurableLSN()))
	if len(frames) == 0 {
		t.Fatal("no frames after sync")
	}
}

func TestTailEOFOnClose(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Collection("users").Insert(store.Doc{"name": "alice"})
	tl, err := l.TailFrom(1)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tl.Close()
	collect(t, tl, int(l.DurableLSN()))
	mustClose(t, l)
	if _, err := tl.Next(nil); err != io.EOF {
		t.Fatalf("tail after close: err=%v, want io.EOF", err)
	}
}

func TestTailFromCompactedLSNAndBootstrap(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	for i := 0; i < 20; i++ {
		db.Collection("users").Insert(store.Doc{"i": int64(i)})
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := l.TailFrom(1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("TailFrom(1) after compaction: err=%v, want ErrCompacted", err)
	}

	snap, snapLSN, tl, err := l.BootstrapTail()
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	defer tl.Close()
	if snapLSN == 0 || len(snap) == 0 {
		t.Fatalf("empty bootstrap: lsn=%d snap=%d bytes", snapLSN, len(snap))
	}
	// The snapshot state plus the streamed records must equal the primary.
	restored, err := decodeSnapshot(snap, nil)
	if err != nil {
		t.Fatalf("restore bootstrap snapshot: %v", err)
	}
	frames := collect(t, tl, int(l.DurableLSN()-snapLSN))
	for _, fr := range frames {
		p, err := ParseFrame(fr.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", fr.LSN, err)
		}
		if err := p.Apply(restored); err != nil {
			t.Fatalf("apply %d: %v", fr.LSN, err)
		}
	}
	if got, want := snapshotBytes(t, restored), snapshotBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("bootstrap + stream does not reproduce the primary state")
	}
}

// TestMirrorLogRoundTrip is the follower's whole durability story in
// miniature: frames tailed from a primary are appended raw (with primary
// LSNs) into a second log whose store has no durability hook, applied to
// that store, and the mirror directory recovers to the identical state.
func TestMirrorLogRoundTrip(t *testing.T) {
	primaryDir, mirrorDir := t.TempDir(), t.TempDir()
	pl, pdb, err := Open(primaryDir, Options{SegmentMaxBytes: 512, CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	defer mustClose(t, pl)
	users := pdb.Collection("users")
	users.EnsureIndex("name")
	var ids []store.ID
	for i := 0; i < 15; i++ {
		ids = append(ids, users.Insert(store.Doc{"name": fmt.Sprintf("u%d", i), "age": int64(i)}))
	}
	users.Update(ids[3], store.Doc{"age": int64(99), "opt": store.Some(int64(1))})
	users.Delete(ids[5])

	ml, mdb, err := Open(mirrorDir, Options{CompactAfterBytes: -1})
	if err != nil {
		t.Fatalf("open mirror: %v", err)
	}
	mdb.SetDurability(nil) // the mirror loop logs raw frames itself

	tl, err := pl.TailFrom(1)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tl.Close()
	for _, fr := range collect(t, tl, int(pl.DurableLSN())) {
		p, err := ParseFrame(fr.Data)
		if err != nil {
			t.Fatalf("parse %d: %v", fr.LSN, err)
		}
		wait := ml.AppendRaw(fr.LSN, fr.Data)
		if err := p.Apply(mdb); err != nil {
			t.Fatalf("apply %d: %v", fr.LSN, err)
		}
		if err := wait(); err != nil {
			t.Fatalf("mirror append %d: %v", fr.LSN, err)
		}
	}
	if got, want := snapshotBytes(t, mdb), snapshotBytes(t, pdb); !bytes.Equal(got, want) {
		t.Fatal("mirror state differs from primary before crash")
	}
	if got, want := ml.LastLSN(), pl.LastLSN(); got != want {
		t.Fatalf("mirror LastLSN %d, primary %d", got, want)
	}
	mustClose(t, ml)

	// Crash-recover the mirror: replay must land on the same state and the
	// same (primary) LSN watermark.
	ml2, mdb2, err := Open(mirrorDir, Options{})
	if err != nil {
		t.Fatalf("reopen mirror: %v", err)
	}
	defer mustClose(t, ml2)
	if got, want := snapshotBytes(t, mdb2), snapshotBytes(t, pdb); !bytes.Equal(got, want) {
		t.Fatal("recovered mirror differs from primary")
	}
	if got, want := ml2.LastLSN(), pl.LastLSN(); got != want {
		t.Fatalf("recovered mirror LastLSN %d, primary %d", got, want)
	}
}

func TestAppendRawRejectsRegressingLSN(t *testing.T) {
	dir := t.TempDir()
	l, db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mustClose(t, l)
	db.SetDurability(nil)
	frame, err := encodeMutation(5, store.Mutation{Op: store.MutCreateCollection, Coll: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRaw(5, frame)(); err != nil {
		t.Fatalf("first raw append: %v", err)
	}
	if err := l.AppendRaw(5, frame)(); err == nil {
		t.Fatal("duplicate LSN accepted")
	}
	if err := l.AppendRaw(4, frame)(); err == nil {
		t.Fatal("regressing LSN accepted")
	}
}
