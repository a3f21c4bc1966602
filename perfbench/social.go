package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"scooter"
	"scooter/internal/store"
)

// social-durable: the Chitter spec (paper §2, Fig. 1) on a durable
// workspace with the default strict flush policy (fsync before ack). The
// mix is 90% feed views (the timed op: own profile, then each followee's
// profile and peeps) and 10% fsync-acked writes (post a peep or edit
// pronouns). Write latency is the host disk's fsync latency more than the
// program's, and it spreads too far between runs to bound, so it is a
// per-layer metric. Find-guarded and follower-guarded read policies make the
// policy layer do most of the read work; the writes exercise the WAL; the
// set-up's restart exercises the snapshot and recovery path.
const (
	socialUsers        = 20_000
	socialFollows      = 8
	socialPeepsPerUser = 4
	// socialTail is how many writes land after the snapshot, so recovery
	// replays log records as well as loading the snapshot.
	socialTail = 500
	// socialOpsPerSecond sizes the fixed amount of work per --seconds.
	socialOpsPerSecond = 6000
	socialSetups       = 3
	// socialWarmViews run untimed after each set-up, inside it.
	socialWarmViews = 2000
)

// chitterSpec is Figure 1 of the paper, built through a migration.
const chitterSpec = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal User {
  create: _ -> [Unauthenticated],
  delete: none,
  name: String {
    read: public,
    write: u -> [u] + User::Find({isAdmin: true}) },
  email: String {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> [u] + User::Find({isAdmin: true}) },
  pronouns: String {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
  isAdmin: Bool {
    read: u -> [u] + User::Find({isAdmin: true}),
    write: u -> User::Find({isAdmin: true}) },
  followers: Set(Id(User)) {
    read: u -> [u] + u.followers,
    write: u -> [u] + User::Find({isAdmin: true}) },
});
CreateModel(Peep {
  create: p -> [p.author],
  delete: p -> [p.author] + User::Find({isAdmin: true}),
  author: Id(User) { read: public, write: none },
  body: String { read: public, write: p -> [p.author] },
});
`

var pronounChoices = []string{"they/them", "she/her", "he/him", "xe/xem", "ze/hir"}

// socialData is the generated dataset, by user index. Every user follows
// exactly socialFollows others, so every feed view costs the same.
type socialData struct {
	names, pronouns []string
	admin           int
	followees       [][]int
	followers       [][]int
	isFollower      []map[int]bool // isFollower[u][v]: v follows u
}

func genSocial(rng *rand.Rand, users int) *socialData {
	d := &socialData{
		names:      make([]string, users),
		pronouns:   make([]string, users),
		admin:      rng.Intn(users),
		followees:  make([][]int, users),
		followers:  make([][]int, users),
		isFollower: make([]map[int]bool, users),
	}
	for u := range d.names {
		d.names[u] = fmt.Sprintf("user%d", u)
		d.pronouns[u] = pronounChoices[rng.Intn(len(pronounChoices))]
		d.isFollower[u] = map[int]bool{}
	}
	for v := range d.followees {
		for len(d.followees[v]) < socialFollows {
			u := rng.Intn(users)
			if u == v || d.isFollower[u][v] {
				continue
			}
			d.isFollower[u][v] = true
			d.followees[v] = append(d.followees[v], u)
			d.followers[u] = append(d.followers[u], v)
		}
	}
	return d
}

type peep struct {
	id   scooter.ID
	body string
}

// social is a seeded durable workspace plus the benchmark's own model of
// what it must hold, which every output is checked against.
type social struct {
	w        *scooter.Workspace
	dir      string
	data     *socialData
	ids      []scooter.ID
	pronouns []string // current, by user index
	peeps    [][]peep // current, by author index, in id order
	writes   int
	// Measured while setting up.
	compactS, snapshotBytes, liveBytesAtCompact, restartS, recoveryS float64
	settleTime                                                       time.Duration
}

// seedSocial builds the dataset under relaxed sync, compacts, writes a
// short tail, closes, and reopens under the strict flush policy — the
// restart a deployment pays. With measureLive it also sizes the live data
// at the snapshot; that scan is the benchmark's own work, so set-up time is
// only measured without it.
func seedSocial(dir string, data *socialData, rng *rand.Rand, measureLive bool) (*social, error) {
	w, err := scooter.OpenDurable(dir, scooter.DurabilityOptions{SyncEvery: -1})
	if err != nil {
		return nil, err
	}
	s := &social{w: w, dir: dir, data: data, pronouns: append([]string(nil), data.pronouns...)}
	if _, err := w.MigrateNamed("001_chitter", chitterSpec); err != nil {
		return nil, err
	}
	s.ids = make([]scooter.ID, len(data.names))
	for u, name := range data.names {
		s.ids[u] = w.InsertRaw("User", scooter.Doc{
			"name": name, "email": name + "@chitter.io", "pronouns": data.pronouns[u],
			"isAdmin": u == data.admin, "followers": []scooter.Value{},
		})
	}
	for u := range data.names {
		fs := make([]scooter.Value, len(data.followers[u]))
		for i, v := range data.followers[u] {
			fs[i] = s.ids[v]
		}
		if err := s.as(u).Update("User", s.ids[u], scooter.Doc{"followers": fs}); err != nil {
			return nil, err
		}
	}
	s.peeps = make([][]peep, len(data.names))
	for u, name := range data.names {
		for j := 0; j < socialPeepsPerUser; j++ {
			body := fmt.Sprintf("peep %d from %s", j, name)
			id := w.InsertRaw("Peep", scooter.Doc{"author": s.ids[u], "body": body})
			s.peeps[u] = append(s.peeps[u], peep{id, body})
		}
	}
	t := time.Now()
	if err := w.Compact(); err != nil {
		return nil, err
	}
	s.compactS = time.Since(t).Seconds()
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	s.snapshotBytes = float64(size)
	if measureLive {
		if s.liveBytesAtCompact, err = s.liveBytes(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < socialTail; i++ {
		if err := s.write(rng.Intn(len(data.names))); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// A restarted process holds nothing else in memory: drop the closed
	// workspace and collect it before recovering, so the peak resident set
	// is the recovery's own. The collection is the benchmark's work, not
	// the program's, and is left out of set-up time.
	t = time.Now()
	w, s.w = nil, nil
	settle()
	s.settleTime = time.Since(t)
	t = time.Now()
	if s.w, err = scooter.OpenDurable(dir, scooter.DurabilityOptions{}); err != nil {
		return nil, err
	}
	if _, err := s.w.MigrateNamed("001_chitter", chitterSpec); err != nil {
		return nil, err
	}
	s.w.EnsureIndex("Peep", "author")
	s.restartS = time.Since(t).Seconds()
	s.recoveryS = counters(s.w.Metrics())["scooter_wal_recovery_seconds"]
	return s, nil
}

func (s *social) as(u int) *scooter.Princ {
	return s.w.AsPrinc(scooter.Instance("User", s.ids[u]))
}

// close releases the workspace and deletes its data directory.
func (s *social) close() {
	s.w.Close()
	os.RemoveAll(s.dir)
}

// write is one fsync-acked write as user u: alternately a new peep and a
// pronouns edit. The model is updated only when the write succeeds.
func (s *social) write(u int) error {
	s.writes++
	if s.writes%2 == 1 {
		body := fmt.Sprintf("post %d from %s", s.writes, s.data.names[u])
		id, err := s.as(u).Insert("Peep", scooter.Doc{"author": s.ids[u], "body": body})
		if err != nil {
			return err
		}
		s.peeps[u] = append(s.peeps[u], peep{id, body})
		return nil
	}
	p := pronounChoices[(s.writes/2)%len(pronounChoices)]
	if err := s.as(u).Update("User", s.ids[u], scooter.Doc{"pronouns": p}); err != nil {
		return err
	}
	s.pronouns[u] = p
	return nil
}

// feed is what one feed view read.
type feed struct {
	own      *scooter.Object
	profiles []*scooter.Object
	peeps    [][]*scooter.Object
}

// view is one feed view as user v, through the policy-enforcing ORM.
func (s *social) view(v int) (*feed, error) {
	pr := s.as(v)
	own, err := pr.FindByID("User", s.ids[v])
	if err != nil {
		return nil, err
	}
	f := &feed{own: own}
	for _, u := range s.data.followees[v] {
		p, err := pr.FindByID("User", s.ids[u])
		if err != nil {
			return nil, err
		}
		ps, err := pr.Find("Peep", scooter.Eq("author", s.ids[u]))
		if err != nil {
			return nil, err
		}
		f.profiles = append(f.profiles, p)
		f.peeps = append(f.peeps, ps)
	}
	return f, nil
}

// extraField is a field an online migration adds, with the value every
// document must carry and who may read it.
type extraField struct {
	name     string
	value    func(u int) string
	followed bool // read policy u -> [u] + u.followers; otherwise public
}

// checkFeed compares a feed view with the model: pronouns and followers
// only when the viewer is the user or one of their followers, email and
// isAdmin only for the user and the admin, peeps exactly as stored.
func (s *social) checkFeed(v int, f *feed, extra []extraField) bool {
	if f == nil || !s.checkProfile(v, v, f.own, extra) {
		return false
	}
	for i, u := range s.data.followees[v] {
		if !s.checkProfile(v, u, f.profiles[i], extra) || !s.checkPeeps(u, f.peeps[i]) {
			return false
		}
	}
	return true
}

func (s *social) checkProfile(v, u int, obj *scooter.Object, extra []extraField) bool {
	if obj == nil || obj.ID != s.ids[u] {
		return false
	}
	self := v == u
	follower := self || s.data.isFollower[u][v]
	private := self || v == s.data.admin
	if !field(obj, "name", true, s.data.names[u]) ||
		!field(obj, "pronouns", follower, s.pronouns[u]) ||
		!field(obj, "email", private, s.data.names[u]+"@chitter.io") ||
		!field(obj, "isAdmin", private, u == s.data.admin) {
		return false
	}
	if fs, ok := obj.Get("followers"); ok != follower || (ok && !sameIDs(fs, s.data.followers[u], s.ids)) {
		return false
	}
	for _, e := range extra {
		if !field(obj, e.name, !e.followed || follower, e.value(u)) {
			return false
		}
	}
	return true
}

// field checks one field's visibility and value. A field that must be
// hidden must be absent; one that must be visible must hold want — a
// present nil is a wrong value.
func field(obj *scooter.Object, name string, visible bool, want scooter.Value) bool {
	got, ok := obj.Get(name)
	if !visible {
		return !ok
	}
	return ok && got == want
}

func sameIDs(v scooter.Value, want []int, ids []scooter.ID) bool {
	got, ok := v.([]scooter.Value)
	if !ok || len(got) != len(want) {
		return false
	}
	set := make(map[scooter.ID]bool, len(want))
	for _, w := range want {
		set[ids[w]] = true
	}
	for _, g := range got {
		if id, ok := g.(scooter.ID); !ok || !set[id] {
			return false
		}
	}
	return true
}

func (s *social) checkPeeps(u int, objs []*scooter.Object) bool {
	want := s.peeps[u]
	if len(objs) != len(want) {
		return false
	}
	for i, o := range objs {
		body, _ := o.Get("body")
		author, _ := o.Get("author")
		if o.ID != want[i].id || body != want[i].body || author != s.ids[u] {
			return false
		}
	}
	return true
}

// liveBytes is the size of every live User and Peep document as
// store.MarshalDoc encodes it — the data a user stored, without framing.
func (s *social) liveBytes() (float64, error) {
	s.w.SetEnforcement(false)
	defer s.w.SetEnforcement(true)
	pr := s.w.AsPrinc(scooter.Static("Unauthenticated"))
	var n float64
	for _, model := range []string{"User", "Peep"} {
		objs, err := pr.Find(model)
		if err != nil {
			return 0, err
		}
		for _, o := range objs {
			b, err := store.MarshalDoc(o.Fields())
			if err != nil {
				return 0, err
			}
			n += float64(len(b))
		}
	}
	return n, nil
}

// socialPlan is the seeded op sequence: a viewer or writer per op, with
// exactly one write in ten at seeded positions.
type socialOp struct {
	user  int
	write bool
}

func socialPlan(rng *rand.Rand, users, n int) []socialOp {
	ops := make([]socialOp, n)
	for i := range ops {
		ops[i] = socialOp{user: rng.Intn(users), write: i%10 == 0}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i].write, ops[j].write = ops[j].write, ops[i].write })
	return ops
}

// setUpSocial runs the set-up reps times, keeping the last copy, and
// warms each copy up with untimed feed views.
func setUpSocial(cfg config, r *result, dataRng, warmRng *rand.Rand, reps int) (*social, error) {
	data := genSocial(dataRng, socialUsers)
	r.settings["users"] = socialUsers
	r.settings["follows_per_user"] = socialFollows
	r.settings["peeps_per_user"] = socialPeepsPerUser
	r.settings["flush_policy"] = "strict: fsync before ack"
	var s *social
	var setups, compacts, restarts, recoveries, snapRatios []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
			s = nil
			settle()
		}
		dir, err := freshDir(cfg, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if s, err = seedSocial(dir, data, seeded(cfg, 4), cfg.trace); err != nil {
			return nil, err
		}
		for j := 0; j < socialWarmViews; j++ {
			v := warmRng.Intn(socialUsers)
			if _, err := s.view(v); err != nil {
				return nil, err
			}
		}
		setups = append(setups, (time.Since(t) - s.settleTime).Seconds())
		compacts = append(compacts, s.compactS)
		restarts = append(restarts, s.restartS)
		recoveries = append(recoveries, s.recoveryS)
		snapRatios = append(snapRatios, ratio(s.snapshotBytes, s.liveBytesAtCompact))
	}
	r.values["setup_s"] = median(setups)
	r.values["snapshot.write_s"] = median(compacts)
	r.values["snapshot.bytes_per_live_byte"] = median(snapRatios)
	r.values["restart.s"] = median(restarts)
	r.values["recovery.s"] = median(recoveries)
	c := counters(s.w.Metrics())
	r.values["recovery.records"] = c["scooter_wal_recovered_records"]
	return s, nil
}

func runSocialDurable(cfg config) (*result, error) {
	r := newResult()
	n := socialOpsPerSecond * cfg.seconds
	reps := socialSetups
	if cfg.trace {
		reps = 1
	}
	s, err := setUpSocial(cfg, r, seeded(cfg, 1), seeded(cfg, 2), reps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.settings["ops"] = n

	plan := socialPlan(seeded(cfg, 3), socialUsers, n)
	timed := plan
	if cfg.trace {
		timed = plan[:n/2]
	}
	settle()
	var views, writes durations
	reg := startDelta(s.w.Metrics())
	mem := startMem()
	for _, op := range timed {
		if op.write {
			t := time.Now()
			err := s.write(op.user)
			writes = append(writes, time.Since(t))
			r.check(err == nil)
			continue
		}
		t := time.Now()
		f, err := s.view(op.user)
		views = append(views, time.Since(t))
		r.check(err == nil && s.checkFeed(op.user, f, nil))
	}
	mem.record(r, len(timed))
	r.values["client.ops_per_s"] = views.rate()
	d := reg.delta()
	r.values["op_p50_us"] = views.quantileUS(0.5)
	r.values["op_p90_us"] = views.quantileUS(0.9)
	r.values["write.p50_us"] = writes.quantileUS(0.5)
	r.values["write.p90_us"] = writes.quantileUS(0.9)
	r.values["max_rss_mb"] = maxRSSMB()

	nv, nw := float64(len(views)), float64(len(writes))
	r.values["orm.reads_checked_per_op"] = d["scooter_orm_reads_checked_total"] / nv
	r.values["orm.fields_stripped_per_op"] = d["scooter_orm_fields_stripped_total"] / nv
	r.values["policy.compiled_share"] = compiledShare(counters(s.w.Metrics()))
	r.values["wal.fsyncs_per_write"] = d["scooter_wal_fsyncs_total"] / nw
	r.values["wal.appends_per_write"] = d["scooter_wal_appends_total"] / nw
	r.values["wal.bytes_per_write"] = d["scooter_wal_bytes_written_total"] / nw
	r.values["wal.batch_records_mean"] = ratio(d["scooter_wal_batch_records_sum"], d["scooter_wal_batch_records_count"])
	if cfg.trace {
		live, err := s.liveBytes()
		if err != nil {
			return nil, err
		}
		size, err := dirBytes(s.dir)
		if err != nil {
			return nil, err
		}
		r.values["disk.bytes_per_user_byte"] = float64(size) / live
		if err := socialTraced(r, s, plan[n/2:n/2+n/8], views.quantileUS(0.5)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// rawView makes the store calls a feed view makes, on a bare copy of the
// workspace's store.
func (s *social) rawView(db *store.DB, v int) {
	users, peeps := db.Collection("User"), db.Collection("Peep")
	users.Get(s.ids[v])
	for _, u := range s.data.followees[v] {
		users.Get(s.ids[u])
		peeps.Find(store.Eq("author", s.ids[u]))
	}
}

// memWrite repeats write number n as user u on an in-memory copy of the
// workspace, which has no log behind its store.
func (s *social) memWrite(mem *scooter.Workspace, u, n int) error {
	pr := mem.AsPrinc(scooter.Instance("User", s.ids[u]))
	if n%2 == 1 {
		_, err := pr.Insert("Peep", scooter.Doc{"author": s.ids[u], "body": "copy"})
		return err
	}
	return pr.Update("User", s.ids[u], scooter.Doc{"pronouns": pronounChoices[(n/2)%len(pronounChoices)]})
}

// socialTraced attributes feed views and writes to layers, the way
// webTraced does: each traced feed view first runs cold, as untraced ones
// do; the raw store calls then run once untimed; then three variants run
// warm in rotating order — enforced through the ORM, with enforcement off,
// and the raw store calls on a copy of the store. A traced write runs once
// on the durable workspace and once on an in-memory copy of it, whose store
// has no log: the difference is the WAL's share.
func socialTraced(r *result, s *social, plan []socialOp, untracedP50 float64) error {
	mem, db, err := stateCopy(s.w)
	if err != nil {
		return err
	}
	defer mem.Close()
	settle()
	var cold, enforced, unenforced, raw, durable, memory durations
	view := func(into *durations) func(v int) error {
		return func(v int) error {
			t := time.Now()
			f, err := s.view(v)
			*into = append(*into, time.Since(t))
			r.check(err == nil && s.checkFeed(v, f, nil))
			return nil
		}
	}
	variants := []func(v int) error{
		view(&enforced),
		func(v int) error {
			s.w.SetEnforcement(false)
			t := time.Now()
			_, err := s.view(v)
			unenforced = append(unenforced, time.Since(t))
			s.w.SetEnforcement(true)
			return err
		},
		func(v int) error {
			t := time.Now()
			s.rawView(db, v)
			raw = append(raw, time.Since(t))
			return nil
		},
	}
	for i, op := range plan {
		if op.write {
			t := time.Now()
			err := s.write(op.user)
			durable = append(durable, time.Since(t))
			r.check(err == nil)
			t = time.Now()
			if err := s.memWrite(mem, op.user, s.writes); err != nil {
				return err
			}
			memory = append(memory, time.Since(t))
			continue
		}
		if err := view(&cold)(op.user); err != nil {
			return err
		}
		s.rawView(db, op.user)
		for k := range variants {
			if err := variants[(i+k)%len(variants)](op.user); err != nil {
				return err
			}
		}
	}
	c, e, n, st := cold.quantileUS(0.5), enforced.quantileUS(0.5), unenforced.quantileUS(0.5), raw.quantileUS(0.5)
	r.values["policy.us_per_op"] = e - n
	r.values["orm.self_us_per_op"] = n - st
	r.values["store.us_per_op"] = st
	r.values["cache.miss_us_per_op"] = c - e
	r.values["wal.us_per_write"] = durable.quantileUS(0.5) - memory.quantileUS(0.5)
	r.values["trace.overhead_pct"] = (c - untracedP50) / untracedP50 * 100
	return nil
}
