package migrate

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"scooter/internal/eval"
	"scooter/internal/orm"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// readdEmailScript removes the private email field and adds a public one
// of the same name, which type changes produced by makemigration do.
const readdEmailScript = `
User::RemoveField(email);
User::AddField(email : String { read: public, write: none }, u -> "new-" + u.name);
`

// TestWindowHidesFieldRemovedAndReadded reads through the install hook
// before the first command runs, while the old, private email is still
// stored: every read must already see the re-added field's derived value,
// a filter on the old value must match nothing, and writes to the model
// must be refused until the removal has run. The result equals the
// uninterrupted stop-the-world run, online and off.
func TestWindowHidesFieldRemovedAndReadded(t *testing.T) {
	s := loadSchema(t, chitterBase)
	ref := store.Open()
	seedChitter(t, ref)
	if _, _, err := Apply(ref, s, "001_email", readdEmailScript, applyOpts(), nil); err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, ref)

	for _, online := range []bool{false, true} {
		t.Run(fmt.Sprintf("online=%v", online), func(t *testing.T) {
			db := store.Open()
			alice, _, _ := seedChitter(t, db)
			conn := orm.Open(s, db)
			anon := conn.AsPrinc(eval.StaticPrincipal("Unauthenticated"))
			var windows []string
			install := func(after *schema.Schema, window eval.Window) error {
				conn.Install(after, window)
				if windows = append(windows, pendingFields(window)); len(windows) > 1 {
					return nil
				}
				if stored, _ := db.Collection("User").Get(alice); stored["email"] != "alice@x" {
					t.Fatalf("first install: stored email %v, want the old value", stored["email"])
				}
				obj, err := anon.FindByID("User", alice)
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := obj.Get("email"); !ok || got != "new-alice" {
					t.Fatalf("first install: alice reads email=%v (present %v), want new-alice", got, ok)
				}
				if hits, err := anon.Find("User", store.Eq("email", "alice@x")); err != nil || len(hits) != 0 {
					t.Fatalf("first install: filter on the old email matched %d users (err %v)", len(hits), err)
				}
				if hits, err := anon.Find("User", store.Eq("email", "new-alice")); err != nil || len(hits) != 1 {
					t.Fatalf("first install: filter on the new email matched %d users (err %v)", len(hits), err)
				}
				if err := anon.Update("User", alice, store.Doc{"name": "mallory"}); !errors.Is(err, orm.ErrMigrating) {
					t.Fatalf("first install: update returned %v, want ErrMigrating", err)
				}
				if _, err := anon.Insert("User", store.Doc{"name": "eve", "email": "e", "pronouns": "", "isAdmin": false, "followers": []store.Value{}}); !errors.Is(err, orm.ErrMigrating) {
					t.Fatalf("first install: insert returned %v, want ErrMigrating", err)
				}
				return nil
			}
			opts := applyOpts()
			opts.Online = online
			opts.BatchSize = 2
			if _, _, err := Apply(db, s, "001_email", readdEmailScript, opts, install); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(windows); got != "[[User.email User.email] [User.email] []]" {
				t.Fatalf("installed windows %s", got)
			}
			if got := snapBytes(t, db); !bytes.Equal(got, want) {
				t.Fatalf("result differs from stop-the-world:\n%s\n---\n%s", got, want)
			}
			self := conn.AsPrinc(eval.InstancePrincipal("User", alice))
			if err := self.Update("User", alice, store.Doc{"name": "alicia"}); err != nil {
				t.Fatalf("update after the migration: %v", err)
			}
		})
	}
}

// TestWindowHidesModelDroppedAndRecreated is the model-level sibling:
// until DeleteModel has run, the recreated model's documents are the old
// model's, so reads must find none of them and writes must be refused.
func TestWindowHidesModelDroppedAndRecreated(t *testing.T) {
	const script = `
DeleteModel(Team);
CreateModel(Team {
  create: public,
  delete: none,
  title: String { read: public, write: public },
  size: I64 { read: public, write: public },
});
`
	s := equivSchema(t)
	db := store.Open()
	old := db.Collection("Team").Insert(store.Doc{"title": "old"})
	conn := orm.Open(s, db)
	anyone := conn.AsPrinc(eval.StaticPrincipal("Anyone"))
	installs := 0
	install := func(after *schema.Schema, window eval.Window) error {
		conn.Install(after, window)
		if installs++; installs > 1 {
			return nil
		}
		if obj, err := anyone.FindByID("Team", old); err != nil || obj != nil {
			t.Fatalf("first install: old team reads as %v (err %v), want absent", obj, err)
		}
		if objs, err := anyone.Find("Team"); err != nil || len(objs) != 0 {
			t.Fatalf("first install: found %d teams (err %v), want none", len(objs), err)
		}
		if _, err := anyone.Insert("Team", store.Doc{"title": "new", "size": int64(1)}); !errors.Is(err, orm.ErrMigrating) {
			t.Fatalf("first install: insert returned %v, want ErrMigrating", err)
		}
		return nil
	}
	if _, _, err := Apply(db, s, "001_team", script, applyOpts(), install); err != nil {
		t.Fatal(err)
	}
	if installs != 2 {
		t.Fatalf("%d installs, want the flip and the end of the removal", installs)
	}
	if _, err := anyone.Insert("Team", store.Doc{"title": "new", "size": int64(1)}); err != nil {
		t.Fatalf("insert after the migration: %v", err)
	}
	objs, err := anyone.Find("Team")
	if err != nil || len(objs) != 1 {
		t.Fatalf("after the migration: %d teams (err %v), want only the new one", len(objs), err)
	}
}
