package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"scooter"
	"scooter/examples/bibifi-web/app"
)

// web-http: the paper's §5.4 BIBIFI application, in memory. One op is one
// visit: GET /announcements as Unauthenticated, then GET /profile as a
// seeded user, both through Server.ServeHTTP with a recorder and no
// sockets. The two pages cost very different amounts, so they are timed
// together as one op rather than pooled under one percentile. No WAL or
// SMT work happens in the timed phase, so a durability or verifier change
// should leave this workload flat.
const (
	webUsers         = 100_000
	webAnnouncements = 50
	// webVisitsPerSecond sizes the fixed amount of work per --seconds.
	webVisitsPerSecond = 3000
	webWarmVisits      = 500
	webSetups          = 5
)

func runWebHTTP(cfg config) (*result, error) {
	r := newResult()
	warmRng := seeded(cfg, 1)
	visits := webVisitsPerSecond * cfg.seconds
	r.settings["users"] = webUsers
	r.settings["announcements"] = webAnnouncements
	r.settings["visits"] = visits

	reps := webSetups
	if cfg.trace {
		reps = 1
	}
	var srv *app.Server
	var ids []scooter.ID
	var annPage []byte
	var setups []float64
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
			settle()
		}
		t := time.Now()
		var err error
		if srv, err = app.New(); err != nil {
			return nil, err
		}
		ids = srv.Seed(webUsers, webAnnouncements)
		for j := 0; j < webWarmVisits; j++ {
			if _, _, err := webVisit(srv, ids, warmRng.Intn(len(ids))); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
		// The announcements page is the same for every visit: check one
		// copy in full, then compare every later page with it.
		page, _, err := webVisit(srv, ids, 0)
		if err != nil {
			return nil, err
		}
		if !announcementsComplete(page) {
			r.correct = false
		}
		annPage = page
	}
	defer srv.Close()
	r.values["setup_s"] = median(setups)

	planRng := seeded(cfg, 3)
	plan := make([]int, visits)
	for i := range plan {
		plan[i] = planRng.Intn(len(ids))
	}
	timed := plan
	if cfg.trace {
		timed = plan[:visits/2]
	}

	settle()
	var visit durations
	reg := startDelta(srv.W.Metrics())
	mem := startMem()
	for _, u := range timed {
		a, p, ok := webTimedVisit(srv, ids, u, annPage)
		r.check(ok)
		visit = append(visit, a+p)
	}
	mem.record(r, len(timed))
	r.values["client.ops_per_s"] = visit.rate()
	d := reg.delta()
	r.values["op_p50_us"] = visit.quantileUS(0.5)
	r.values["op_p90_us"] = visit.quantileUS(0.9)
	r.values["max_rss_mb"] = maxRSSMB()
	r.values["orm.reads_checked_per_op"] = d["scooter_orm_reads_checked_total"] / float64(len(timed))
	r.values["orm.fields_stripped_per_op"] = d["scooter_orm_fields_stripped_total"] / float64(len(timed))
	r.values["policy.compiled_share"] = compiledShare(counters(srv.W.Metrics()))
	if cfg.trace {
		if err := webTraced(r, srv, ids, plan[visits/2:visits/2+visits/4], annPage, visit.quantileUS(0.5)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// compiledShare is the share of the policy table served by compiled
// closures rather than the interpreter.
func compiledShare(c map[string]float64) float64 {
	comp := c["scooter_orm_policies_compiled_total"]
	return ratio(comp, comp+c["scooter_orm_policies_interpreted_total"])
}

func webRequest(path string, user scooter.ID) *http.Request {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != scooter.Nil {
		req.Header.Set("X-User-Id", strconv.FormatInt(int64(user), 10))
	}
	return req
}

// webVisit serves one untimed visit and returns both page bodies.
func webVisit(srv *app.Server, ids []scooter.ID, u int) ([]byte, []byte, error) {
	a := httptest.NewRecorder()
	srv.ServeHTTP(a, webRequest("/announcements", scooter.Nil))
	p := httptest.NewRecorder()
	srv.ServeHTTP(p, webRequest("/profile", ids[u]))
	if a.Code != http.StatusOK || p.Code != http.StatusOK {
		return nil, nil, fmt.Errorf("visit as user %d: status %d / %d", u, a.Code, p.Code)
	}
	return a.Body.Bytes(), p.Body.Bytes(), nil
}

// webTimedVisit times the two requests of one visit separately and checks
// both pages: the announcements page must equal the verified copy, the
// profile page must carry the principal's own email.
func webTimedVisit(srv *app.Server, ids []scooter.ID, u int, annPage []byte) (time.Duration, time.Duration, bool) {
	areq, arec := webRequest("/announcements", scooter.Nil), httptest.NewRecorder()
	preq, prec := webRequest("/profile", ids[u]), httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(arec, areq)
	t1 := time.Now()
	srv.ServeHTTP(prec, preq)
	t2 := time.Now()
	ok := arec.Code == http.StatusOK && prec.Code == http.StatusOK &&
		bytes.Equal(arec.Body.Bytes(), annPage) &&
		bytes.Contains(prec.Body.Bytes(), []byte(fmt.Sprintf("<dd>user%d@example.com</dd>", u)))
	return t1.Sub(t0), t2.Sub(t1), ok
}

// announcementsComplete reports whether the page lists every seeded
// announcement exactly once.
func announcementsComplete(page []byte) bool {
	if bytes.Count(page, []byte("<article>")) != webAnnouncements {
		return false
	}
	for i := 0; i < webAnnouncements; i++ {
		if !bytes.Contains(page, []byte(fmt.Sprintf("<h2>Announcement %d</h2>", i))) {
			return false
		}
	}
	return true
}

// webTraced attributes a visit's time to layers. Each traced visit first
// runs as the untraced ones do, with its data as cold as a random user
// makes it; that copy's median against the untraced median is the tracing
// overhead, and its median against the warm copy's is the time lost to
// cache misses. The matching raw store calls then run once untimed, so
// that every variant below finds its data in cache. Four variants follow,
// in an order that rotates: the two requests through the handler; the ORM
// calls the handlers make, enforced; the same calls with enforcement off;
// and the matching raw Collection calls on a copy of the workspace's store.
// Layer self time is the difference of adjacent variants' medians.
func webTraced(r *result, srv *app.Server, ids []scooter.ID, plan []int, annPage []byte, untracedP50 float64) error {
	mem, db, err := stateCopy(srv.W)
	if err != nil {
		return err
	}
	mem.Close()
	anon := srv.W.AsPrinc(scooter.Static("Unauthenticated"))
	var cold, full, enforced, unenforced, raw durations
	visit := func(into *durations) func(u int) error {
		return func(u int) error {
			a, p, ok := webTimedVisit(srv, ids, u, annPage)
			*into = append(*into, a+p)
			r.check(ok)
			return nil
		}
	}
	ormCalls := func(u int) error {
		if _, err := anon.Find("Announcement"); err != nil {
			return err
		}
		if _, err := anon.Find("Contest"); err != nil {
			return err
		}
		obj, err := srv.W.AsPrinc(scooter.Instance("User", ids[u])).FindByID("User", ids[u])
		if err == nil && obj == nil {
			err = fmt.Errorf("user %d not found", u)
		}
		return err
	}
	rawCalls := func(u int) error {
		db.Collection("Announcement").Find()
		db.Collection("Contest").Find()
		if _, ok := db.Collection("User").Get(ids[u]); !ok {
			return fmt.Errorf("copied user %d not found", u)
		}
		return nil
	}
	variants := []func(u int) error{
		visit(&full),
		func(u int) error {
			t := time.Now()
			err := ormCalls(u)
			enforced = append(enforced, time.Since(t))
			return err
		},
		func(u int) error {
			srv.W.SetEnforcement(false)
			t := time.Now()
			err := ormCalls(u)
			unenforced = append(unenforced, time.Since(t))
			srv.W.SetEnforcement(true)
			return err
		},
		func(u int) error {
			t := time.Now()
			err := rawCalls(u)
			raw = append(raw, time.Since(t))
			return err
		},
	}
	settle()
	for i, u := range plan {
		if err := visit(&cold)(u); err != nil {
			return err
		}
		if err := rawCalls(u); err != nil {
			return err
		}
		for k := range variants {
			if err := variants[(i+k)%len(variants)](u); err != nil {
				return err
			}
		}
	}
	c, f, e, n, s := cold.quantileUS(0.5), full.quantileUS(0.5), enforced.quantileUS(0.5), unenforced.quantileUS(0.5), raw.quantileUS(0.5)
	r.values["handler.self_us_per_op"] = f - e
	r.values["policy.us_per_op"] = e - n
	r.values["orm.self_us_per_op"] = n - s
	r.values["store.us_per_op"] = s
	r.values["cache.miss_us_per_op"] = c - f
	r.values["trace.overhead_pct"] = (c - untracedP50) / untracedP50 * 100
	return nil
}
