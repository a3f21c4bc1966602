package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/schema"
	"scooter/internal/store"
	"scooter/internal/store/wal"
)

// seedMany seeds n chitter users so an online backfill spans several
// batches. Fields are deterministic functions of the index, so snapshots
// of independent runs are comparable byte for byte.
func seedMany(t *testing.T, db *store.DB, n int) {
	t.Helper()
	users := db.Collection("User")
	for i := 0; i < n; i++ {
		users.Insert(store.Doc{
			"name": fmt.Sprintf("u%03d", i), "email": fmt.Sprintf("u%03d@x", i),
			"pronouns": "they/them", "isAdmin": i == 0, "followers": []store.Value{},
		})
	}
}

// TestOnlineApplyMatchesStopTheWorld runs the same migration online
// (batched, watermarked) and stop-the-world over identical databases: the
// final states — documents, `$migrations` journal included — must be byte
// identical, and the online run must checkpoint monotonically increasing
// watermarks that reset at each command boundary.
func TestOnlineApplyMatchesStopTheWorld(t *testing.T) {
	s := loadSchema(t, chitterBase)

	ref := store.Open()
	seedMany(t, ref, 10)
	if _, applied, err := Apply(ref, s, "001_bio", applyScript, applyOpts(), nil); err != nil || !applied {
		t.Fatalf("stop-the-world apply: applied=%v err=%v", applied, err)
	}
	want := snapBytes(t, ref)

	db := store.Open()
	seedMany(t, db, 10)
	opts := applyOpts()
	opts.Online = true
	opts.BatchSize = 3
	var windows []string
	var watermarks []store.ID
	lastRemaining := -1
	install := func(after *schema.Schema, window eval.Window) error {
		windows = append(windows, pendingFields(window))
		if len(windows) > 1 {
			return nil
		}
		// The first window derives both fields of an unswept document, the
		// second from the document as augmented by the first.
		doc, _ := db.Collection("User").Get(store.ID(2))
		got, derived, err := window.Augment("User", doc)
		if err != nil {
			return err
		}
		if !derived || got["bio"] != "I'm u000" || got["karma"] != int64(1) {
			t.Errorf("first window derives bio=%v karma=%v (derived=%v), want %q and 1", got["bio"], got["karma"], derived, "I'm u000")
		}
		if _, has := doc["bio"]; has {
			t.Error("augmenting modified the stored document")
		}
		return nil
	}
	opts.OnBatch = func(model, field string, watermark store.ID, remaining int) error {
		watermarks = append(watermarks, watermark)
		lastRemaining = remaining
		return nil
	}
	after, applied, err := Apply(db, s, "001_bio", applyScript, opts, install)
	if err != nil || !applied {
		t.Fatalf("online apply: applied=%v err=%v", applied, err)
	}
	if after.Model("User").Field("karma") == nil {
		t.Fatal("schema missing karma after online apply")
	}
	if got := snapBytes(t, db); !bytes.Equal(got, want) {
		t.Fatalf("online result differs from stop-the-world:\n%s\n---\n%s", got, want)
	}

	// Both fields are pending from the flip, and each leaves the window
	// when its own sweep ends.
	wantWindows := []string{"[User.bio User.karma]", "[User.karma]", "[]"}
	if fmt.Sprint(windows) != fmt.Sprint(wantWindows) {
		t.Fatalf("installed windows %v, want %v", windows, wantWindows)
	}
	// 10 docs / batch 3 = 4 batches per command, watermarks increasing
	// within each command and resetting between commands.
	if len(watermarks) != 8 {
		t.Fatalf("batch checkpoints: %v", watermarks)
	}
	for i := 1; i < 4; i++ {
		if watermarks[i] <= watermarks[i-1] || watermarks[i+4] <= watermarks[i+3] {
			t.Fatalf("watermarks not increasing per command: %v", watermarks)
		}
	}
	if lastRemaining != 0 {
		t.Fatalf("remaining after final batch = %d", lastRemaining)
	}
	entry, ok := NewJournal(db).Lookup("001_bio")
	if !ok || !entry.Done || entry.Watermark != 0 {
		t.Fatalf("journal entry after online apply: %+v", entry)
	}
}

// pendingFields renders a window as its model.field list, in order.
func pendingFields(window eval.Window) string {
	names := make([]string, len(window))
	for i, d := range window {
		names[i] = d.Model + "." + d.Field
	}
	return fmt.Sprint(names)
}

// TestOnlineApplyCrashMidBackfillConverges is the online sibling of
// TestApplyCrashMidScriptConverges: the log is torn at every byte the
// online apply phase wrote — which includes every batch boundary — and
// after recovery the journal's backfill watermark must never claim a
// document the data does not reflect, and a resumed online Apply must
// converge to the exact bytes of an uninterrupted run. The resumed run's
// window is rebuilt from the journal: every AddField from entry.Applied on
// is pending (both, after a crash inside the first sweep), and reading any
// document through it already gives the uninterrupted run's values.
func TestOnlineApplyCrashMidBackfillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow; run without -short")
	}
	s := loadSchema(t, chitterBase)
	opts := applyOpts()
	opts.Online = true
	opts.BatchSize = 3

	// Base: seeded users, durably logged, no migration yet.
	base := t.TempDir()
	l, db, err := wal.Open(base, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedMany(t, db, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentName(1)
	baseLog, err := os.ReadFile(filepath.Join(base, seg))
	if err != nil {
		t.Fatal(err)
	}

	// Full: base + the whole online migration; its snapshot is the target.
	full := t.TempDir()
	if err := os.CopyFS(full, os.DirFS(base)); err != nil {
		t.Fatal(err)
	}
	l, db, err = wal.Open(full, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, applied, err := Apply(db, s, "001_bio", applyScript, opts, nil); err != nil || !applied {
		t.Fatalf("full online apply: applied=%v err=%v", applied, err)
	}
	want := snapBytes(t, db)
	final := map[store.ID]store.Doc{}
	for _, doc := range db.Collection("User").Find() {
		final[doc.ID()] = doc
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fullLog, err := os.ReadFile(filepath.Join(full, seg))
	if err != nil {
		t.Fatal(err)
	}

	midFirstSweep := 0
	for off := len(baseLog); off <= len(fullLog); off++ {
		trial := t.TempDir()
		if err := os.CopyFS(trial, os.DirFS(full)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trial, seg), fullLog[:off:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l, db, err := wal.Open(trial, wal.Options{})
		if err != nil {
			t.Fatalf("off %d: recovery: %v", off, err)
		}
		// Invariant: the recovered watermark never claims unswept documents.
		// The command at index entry.Applied is the one mid-backfill; for
		// this script command 0 populates bio, command 1 karma.
		applied := 0
		if entry, ok := NewJournal(db).Lookup("001_bio"); ok {
			applied = entry.Applied
			if entry.Applied == 0 && entry.Watermark > 0 {
				midFirstSweep++
			}
			if entry.Watermark > 0 {
				field := "bio"
				if entry.Applied >= 1 {
					field = "karma"
				}
				for _, doc := range db.Collection("User").Find() {
					if doc.ID() <= entry.Watermark {
						if _, has := doc[field]; !has {
							t.Fatalf("off %d: watermark %d claims doc %d but %s is missing",
								off, entry.Watermark, doc.ID(), field)
						}
					}
				}
			}
		}
		installs := 0
		install := func(after *schema.Schema, window eval.Window) error {
			if installs++; installs > 1 {
				return nil
			}
			wantPending := []string{"[User.bio User.karma]", "[User.karma]", "[]"}[applied]
			if got := pendingFields(window); got != wantPending {
				t.Errorf("off %d: resumed at command %d with window %s, want %s", off, applied, got, wantPending)
			}
			for _, doc := range db.Collection("User").Find() {
				got, _, err := window.Augment("User", doc)
				if err != nil {
					return err
				}
				for _, f := range []string{"bio", "karma"} {
					if got[f] != final[doc.ID()][f] {
						t.Errorf("off %d: doc %d reads %s=%v through the resumed window, uninterrupted run has %v",
							off, doc.ID(), f, got[f], final[doc.ID()][f])
					}
				}
			}
			return nil
		}
		if _, _, err := Apply(db, s, "001_bio", applyScript, opts, install); err != nil {
			t.Fatalf("off %d: online re-apply: %v", off, err)
		}
		if got := snapBytes(t, db); !bytes.Equal(got, want) {
			t.Fatalf("off %d: state after crash+online re-apply differs from uninterrupted run", off)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("off %d: close: %v", off, err)
		}
	}
	if midFirstSweep == 0 {
		t.Fatal("no tear point fell inside the first field's sweep")
	}
}

// TestJournalBeginRevalidates is the regression for resume trusting stale
// journal metadata: Begin on a crashed entry must revalidate the stored
// command count (and applied watermark) against the re-parsed script and
// refuse with a typed error when they contradict, instead of silently
// resuming at the wrong command.
func TestJournalBeginRevalidates(t *testing.T) {
	db := store.Open()
	j := NewJournal(db)
	j.Clock = fixedClock
	id, err := j.Begin("001_bio", applyScript, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed entry with matching metadata resumes (same id back).
	got, err := j.Begin("001_bio", applyScript, 2)
	if err != nil || got != id {
		t.Fatalf("clean resume: id=%v err=%v", got, err)
	}

	// Stored command count contradicting the script: typed refusal.
	coll := db.Collection(JournalCollection)
	if err := coll.Update(id, store.Doc{"commands": int64(5)}); err != nil {
		t.Fatal(err)
	}
	_, err = j.Begin("001_bio", applyScript, 2)
	var corrupt *ErrJournalCorrupt
	if !errors.As(err, &corrupt) || corrupt.Stored != 5 || corrupt.Parsed != 2 {
		t.Fatalf("command-count mismatch: %v", err)
	}

	// Applied beyond the script length: also a typed refusal.
	if err := coll.Update(id, store.Doc{"commands": int64(2), "applied": int64(3)}); err != nil {
		t.Fatal(err)
	}
	_, err = j.Begin("001_bio", applyScript, 2)
	if !errors.As(err, &corrupt) {
		t.Fatalf("applied-out-of-range: %v", err)
	}

	// Apply surfaces the refusal instead of executing anything.
	s := loadSchema(t, chitterBase)
	seedChitter(t, db)
	if _, _, err := Apply(db, s, "001_bio", applyScript, applyOpts(), nil); !errors.As(err, &corrupt) {
		t.Fatalf("Apply over corrupt journal: %v", err)
	}
}

// groupCommitLog is a store.Durability that models a group-committing
// log: a wait on a record that is not yet durable syncs every record
// appended so far, in one sync.
type groupCommitLog struct {
	mu       sync.Mutex
	appended int
	synced   int
	syncs    int
	// onAppend sees each mutation with the log's state before it.
	onAppend func(m store.Mutation, appended, synced int)
}

func (l *groupCommitLog) Append(m store.Mutation) store.WaitFunc {
	l.mu.Lock()
	if l.onAppend != nil {
		l.onAppend(m, l.appended, l.synced)
	}
	l.appended++
	lsn := l.appended
	l.mu.Unlock()
	return func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.synced < lsn {
			l.synced = l.appended
			l.syncs++
		}
		return nil
	}
}

// TestOnlineBackfillAwaitsOncePerBatch checks the online backfill's
// durability protocol: a batch's updates are awaited together, so the
// backfill costs about one sync per batch rather than one per document,
// and every journal checkpoint is logged only once everything before it,
// the batch's updates included, is durable.
func TestOnlineBackfillAwaitsOncePerBatch(t *testing.T) {
	s := loadSchema(t, chitterBase)
	db := store.Open()
	const docs, batch = 600, 100
	seedMany(t, db, docs)
	log := &groupCommitLog{}
	var userUpdates, checkpoints int
	log.onAppend = func(m store.Mutation, appended, synced int) {
		switch {
		case m.Coll == "User" && m.Op == store.MutUpdate:
			userUpdates++
		case m.Coll == JournalCollection:
			checkpoints++
			if synced != appended {
				t.Errorf("journal record logged with %d earlier records not yet durable", appended-synced)
			}
		}
	}
	db.SetDurability(log)
	opts := applyOpts()
	opts.Online = true
	opts.BatchSize = batch
	if _, applied, err := Apply(db, s, "001_bio", applyScript, opts, nil); err != nil || !applied {
		t.Fatalf("online apply: applied=%v err=%v", applied, err)
	}
	if userUpdates != 2*docs {
		t.Fatalf("backfill logged %d user updates, want %d", userUpdates, 2*docs)
	}
	if checkpoints < 2*docs/batch {
		t.Fatalf("only %d journal records for %d batches", checkpoints, 2*docs/batch)
	}
	// Two AddFields of 6 batches each: one sync per batch, plus one per
	// journal, schema and collection record.
	t.Logf("%d syncs, %d journal records, %d backfilled documents", log.syncs, checkpoints, userUpdates)
	if perDoc := float64(log.syncs) / float64(userUpdates); perDoc > 0.05 {
		t.Fatalf("%d syncs for %d backfilled documents (%.3f per document)", log.syncs, userUpdates, perDoc)
	}
}
