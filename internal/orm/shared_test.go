package orm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"scooter/internal/store"
)

// Objects share the stored document instead of copying it. These tests pin
// what that must not change: a missing field reads as absent, values handed
// to the application are copies, concurrent writers never tear a read, and
// a read allocates no per-object map.

// TestAbsentFieldIsNotFabricated stores a User without its declared
// pronouns field. FindByID, Find and Fields must report the field absent,
// not present with a nil value, even to a principal allowed to read it.
func TestAbsentFieldIsNotFabricated(t *testing.T) {
	fx := newFixture(t)
	carol := fx.conn.DB.Collection("User").Insert(store.Doc{
		"name": "carol", "email": "carol@chitter.io", "isAdmin": false, "followers": []store.Value{},
	})
	pr := fx.conn.AsPrinc(user(carol))
	byID, err := pr.FindByID("User", carol)
	if err != nil || byID == nil {
		t.Fatalf("FindByID: %v, %v", byID, err)
	}
	found, err := pr.Find("User", store.Eq("name", "carol"))
	if err != nil || len(found) != 1 {
		t.Fatalf("Find: %v, %v", found, err)
	}
	for name, obj := range map[string]*Object{"FindByID": byID, "Find": found[0]} {
		if v, ok := obj.Get("pronouns"); ok {
			t.Errorf("%s: Get(pronouns) = %v, present; the document has no such field", name, v)
		}
		if v, ok := obj.Fields()["pronouns"]; ok {
			t.Errorf("%s: Fields() has pronouns = %v; the document has no such field", name, v)
		}
		if v, ok := obj.Get("email"); !ok || v != "carol@chitter.io" {
			t.Errorf("%s: Get(email) = %v, %t; carol may read her own email", name, v, ok)
		}
	}
	// A filter on the missing field matches nothing rather than nil.
	if objs, err := pr.Find("User", store.Eq("pronouns", nil)); err != nil || len(objs) != 0 {
		t.Errorf("Find(pronouns == nil) = %d objects, %v", len(objs), err)
	}
}

// TestObjectValuesAreCopies mutates everything an Object hands out — sets
// from Get, the map and sets from Fields — and checks that none of it
// reaches the store or a later read.
func TestObjectValuesAreCopies(t *testing.T) {
	for _, enforce := range []bool{true, false} {
		t.Run(fmt.Sprintf("enforcement=%t", enforce), func(t *testing.T) {
			fx := newFixture(t)
			fx.conn.SetEnforcement(enforce)
			stored, _ := fx.conn.DB.Collection("User").Get(fx.alice)
			before := stored.Clone()

			obj, err := fx.conn.AsPrinc(user(fx.alice)).FindByID("User", fx.alice)
			if err != nil {
				t.Fatal(err)
			}
			followers, ok := obj.Get("followers")
			if !ok {
				t.Fatal("alice cannot read her own followers")
			}
			followers.([]store.Value)[0] = store.ID(-1)
			fields := obj.Fields()
			fields["followers"].([]store.Value)[0] = store.ID(-2)
			fields["name"] = "mallory"
			delete(fields, "email")

			after, _ := fx.conn.DB.Collection("User").Get(fx.alice)
			if !reflect.DeepEqual(after, before) || !reflect.DeepEqual(stored, before) {
				t.Fatalf("mutating an Object's values reached the store: %v, was %v", after, before)
			}
			if v, _ := obj.Get("followers"); !reflect.DeepEqual(v, []store.Value{fx.bob}) {
				t.Fatalf("a later Get sees %v", v)
			}
			if f := obj.Fields(); f["name"] != "alice" || f["email"] != "alice@chitter.io" {
				t.Fatalf("a later Fields sees %v", f)
			}
		})
	}
}

// TestSharedDocsConcurrentWriters runs every store writer (Update,
// UpdateIfAbsent, UpdateAll, RemoveField) against the fixture's users while
// readers go through FindByID, Find and the compiled read policies, whose
// Find({isAdmin: true}) and u.followers probes read the same documents.
// Under -race it checks that a shared document is never written; in any
// mode it checks that no reader sees a torn or foreign value.
func TestSharedDocsConcurrentWriters(t *testing.T) {
	fx := newFixture(t)
	users := fx.conn.DB.Collection("User")
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			pronouns := fmt.Sprintf("p%d", i)
			if err := users.Update(fx.alice, store.Doc{"pronouns": pronouns, "followers": []store.Value{fx.bob}}); err != nil {
				errs <- err
				return
			}
			users.UpdateIfAbsent(fx.bob, "scratch", int64(i))
			users.UpdateAll([]store.Filter{store.Eq("isAdmin", true)}, func(d store.Doc) store.Doc {
				return store.Doc{"email": d["name"].(string) + "@chitter.io"}
			})
			users.RemoveField("scratch")
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			viewer := []store.ID{fx.alice, fx.bob, fx.admin}[r]
			pr := fx.conn.AsPrinc(user(viewer))
			for i := 0; i < rounds; i++ {
				obj, err := pr.FindByID("User", fx.alice)
				if err != nil || obj == nil {
					errs <- fmt.Errorf("FindByID: %v, %v", obj, err)
					return
				}
				if err := checkAlice(fx, obj, viewer); err != nil {
					errs <- err
					return
				}
				objs, err := pr.Find("User", store.Eq("name", "alice"))
				if err != nil || len(objs) != 1 {
					errs <- fmt.Errorf("Find: %d objects, %v", len(objs), err)
					return
				}
				if err := checkAlice(fx, objs[0], viewer); err != nil {
					errs <- err
					return
				}
				if _, err := pr.Find("User"); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// checkAlice checks one read of alice against the fixture's policies: her
// followers (bob) see her pronouns, the admin sees her email, and every
// value is one some writer stored.
func checkAlice(fx *fixture, obj *Object, viewer store.ID) error {
	if name, _ := obj.Get("name"); name != "alice" {
		return fmt.Errorf("name = %v", name)
	}
	pronouns, ok := obj.Get("pronouns")
	if ok != (viewer != fx.admin) {
		return fmt.Errorf("viewer %v: pronouns readable = %t", viewer, ok)
	}
	if s, _ := pronouns.(string); ok && s != "they/them" && (len(s) < 2 || s[0] != 'p') {
		return fmt.Errorf("pronouns = %q", s)
	}
	if _, ok := obj.Get("email"); ok != (viewer != fx.bob) {
		return fmt.Errorf("viewer %v: email readable = %t", viewer, ok)
	}
	if followers, ok := obj.Get("followers"); ok && !reflect.DeepEqual(followers, []store.Value{fx.bob}) {
		return fmt.Errorf("followers = %v", followers)
	}
	return nil
}

// TestFindByIDAllocs bounds the allocations of one policy-checked read. The
// document is shared and the readable fields are a mask, so a FindByID
// whose read policies run a Find({isAdmin: true}) probe and a follower
// check allocates the Object and nothing else.
func TestFindByIDAllocs(t *testing.T) {
	fx := newFixture(t)
	pr := fx.conn.AsPrinc(user(fx.bob))
	if obj, err := pr.FindByID("User", fx.alice); err != nil || obj == nil {
		t.Fatal(obj, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pr.FindByID("User", fx.alice); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > findByIDAllocBudget {
		t.Fatalf("FindByID allocates %.1f times per call, budget %d", allocs, findByIDAllocBudget)
	}
}

const findByIDAllocBudget = 1

// TestFieldMaskBeyond64 covers the mask's spill words, which only models
// with more than 64 fields reach.
func TestFieldMaskBeyond64(t *testing.T) {
	var m fieldMask
	for i := 0; i < 200; i += 3 {
		m.set(i)
	}
	for i := 0; i < 260; i++ {
		if want := i < 200 && i%3 == 0; m.has(i) != want {
			t.Fatalf("has(%d) = %t, want %t", i, m.has(i), want)
		}
	}
}
