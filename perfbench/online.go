package main

import (
	"time"

	"scooter"
	"scooter/internal/parser"
	"scooter/internal/schema"
)

// online-addfield: the social-durable dataset gets one verified migration
// with two AddFields, run online in batches of 256. At each batch boundary
// Options.OnBatch runs 8 feed views (the timed op) and 1 write in the same
// goroutine — the foreground traffic of a single client. The backfill
// fsyncs once per document, so the migration's wall time follows the host
// disk; like write latency it is a per-layer metric. This is the only
// workload where the migrate executor, backfill and journal do the work,
// and its reads take the ORM's lazy dual-read path. The timed phase is the
// one migration of the fixed dataset.
//
// The two sweeps serve views in different states — during the first, the
// second field is declared but not yet backfilled — so their views are
// timed apart: op_p50_us and op_p90_us are the second sweep's, and the
// first sweep's are per-layer metrics. Every view of both sweeps is
// checked and counted. Eight views per boundary give each sweep over 600
// timed views; with three, one sweep's p90 spread 12% across seeds.
const (
	onlineBatch      = 256
	onlineViewsPerFG = 8
	onlineSetups     = 3
	onlineScriptName = "002_bio_handle"
	// onlineScript adds a §2-style bio whose read policy is the one
	// pronouns has, so the flow from pronouns is safe, and a public handle
	// derived from the public name.
	onlineScript = `
User::AddField(bio : String {
  read: u -> [u] + u.followers,
  write: u -> [u] + User::Find({isAdmin: true})
}, u -> "I'm " + u.name + " (" + u.pronouns + ")");
User::AddField(handle : String {
  read: public,
  write: u -> [u] + User::Find({isAdmin: true})
}, u -> "@" + u.name);
`
)

func runOnlineAddField(cfg config) (*result, error) {
	r := newResult()
	reps := onlineSetups
	if cfg.trace {
		reps = 1
	}
	s, err := setUpSocial(cfg, r, seeded(cfg, 1), seeded(cfg, 2), reps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rng := seeded(cfg, 3)
	r.settings["batch_size"] = onlineBatch
	r.settings["migration"] = onlineScriptName

	// The values every document must end up with: bio derives from the
	// pronouns a user had when the migration started, whatever later
	// writes do; handle derives from the name.
	startPronouns := append([]string(nil), s.pronouns...)
	extra := []extraField{
		{name: "bio", followed: true, value: func(u int) string {
			return "I'm " + s.data.names[u] + " (" + startPronouns[u] + ")"
		}},
		{name: "handle", value: func(u int) string { return "@" + s.data.names[u] }},
	}

	// views holds each sweep's feed views, keyed by the field it backfills.
	views := map[string]durations{}
	var writes durations
	var intervals []float64
	var lastBatch time.Time
	var lastFG time.Duration
	var migStart time.Time
	var verifyS float64
	failedViews := map[string]int{}
	opts := scooter.DefaultOptions()
	opts.Online = true
	opts.BatchSize = onlineBatch
	opts.OnPlanned = func(*schema.Schema) error {
		verifyS = time.Since(migStart).Seconds()
		return nil
	}
	opts.OnBatch = func(_, sweep string, _ scooter.ID, _ int) error {
		now := time.Now()
		if !lastBatch.IsZero() {
			intervals = append(intervals, float64(now.Sub(lastBatch)-lastFG)/float64(time.Millisecond))
		}
		lastBatch = now
		for k := 0; k < onlineViewsPerFG; k++ {
			v := rng.Intn(len(s.ids))
			t := time.Now()
			f, err := s.view(v)
			views[sweep] = append(views[sweep], time.Since(t))
			ok := err == nil && s.checkFeed(v, f, extra)
			if !ok {
				failedViews[sweep]++
			}
			r.check(ok)
		}
		u := rng.Intn(len(s.ids))
		t := time.Now()
		err := s.write(u)
		writes = append(writes, time.Since(t))
		r.check(err == nil)
		lastFG = time.Since(now)
		return nil
	}

	settle()
	var reg *registryDelta
	var traceCost time.Duration
	if cfg.trace {
		t := time.Now()
		reg = startDelta(s.w.Metrics())
		traceCost += time.Since(t)
	}
	mem := startMem()
	migStart = time.Now()
	applied, err := s.w.MigrateNamedOpts(onlineScriptName, onlineScript, opts)
	migWall := time.Since(migStart)
	if err != nil {
		return nil, err
	}
	if !applied {
		r.correct = false
	}
	first, second := views[extra[0].name], views[extra[1].name]
	nViews := float64(len(first) + len(second))
	mem.record(r, len(first)+len(second))
	r.values["client.ops_per_s"] = append(append(durations(nil), first...), second...).rate()
	r.values["op_p50_us"] = second.quantileUS(0.5)
	r.values["op_p90_us"] = second.quantileUS(0.9)
	r.values["view.first_sweep_p50_us"] = first.quantileUS(0.5)
	r.values["view.first_sweep_p90_us"] = first.quantileUS(0.9)
	r.values["write.p50_us"] = writes.quantileUS(0.5)
	r.values["write.p90_us"] = writes.quantileUS(0.9)
	r.values["max_rss_mb"] = maxRSSMB()
	for _, e := range extra {
		r.settings["views_"+e.name+"_sweep"] = len(views[e.name])
		r.settings["failed_views_"+e.name+"_sweep"] = failedViews[e.name]
	}

	if cfg.trace {
		t := time.Now()
		d := reg.delta()
		traceCost += time.Since(t)
		docs := d["scooter_backfill_docs_total"]
		batches := d["scooter_backfill_batches_total"]
		r.values["wal.fsyncs_per_doc"] = ratio(d["scooter_wal_fsyncs_total"], docs)
		r.values["wal.bytes_per_doc"] = ratio(d["scooter_wal_bytes_written_total"], docs)
		r.values["backfill.batches"] = batches
		r.values["backfill.docs_per_batch"] = ratio(docs, batches)
		r.values["backfill.skipped_docs"] = d["scooter_backfill_skipped_total"]
		r.values["backfill.batch_ms"] = median(intervals)
		r.values["migrate.verify_s"] = verifyS
		r.values["migrate.wall_s"] = migWall.Seconds()
		r.values["orm.lazy_reads_per_op"] = ratio(d["scooter_orm_lazy_reads_total"], nViews)
		r.values["orm.lazy_writes_per_op"] = ratio(d["scooter_orm_lazy_writes_total"], float64(len(writes)))
		r.values["orm.reads_checked_per_op"] = ratio(d["scooter_orm_reads_checked_total"], nViews)
		r.values["orm.fields_stripped_per_op"] = ratio(d["scooter_orm_fields_stripped_total"], nViews)
		r.values["policy.compiled_share"] = compiledShare(counters(s.w.Metrics()))
		// The migration's verification is one pass over one script: the
		// call up to OnPlanned parses, verifies and opens the journal.
		hits, misses := d["scooter_verify_cache_hits_total"], d["scooter_verify_cache_misses_total"]
		r.values["verify.cache_hit_ratio"] = ratio(hits, hits+misses)
		recordVerify(r, d, 1, verifyS*1e6, parseUS())
		// Tracing here is two registry reads around the migration; its
		// overhead is their share of the migration's wall time.
		r.values["trace.overhead_pct"] = traceCost.Seconds() / migWall.Seconds() * 100
	}

	// After the run every document carries both fields with the values
	// their initialisers give.
	ok, err := checkMigrated(s, extra)
	if err != nil {
		return nil, err
	}
	if !ok {
		r.correct = false
	}
	return r, nil
}

// recordVerify stores the migration-path layers' share of n verification
// passes from a registry delta over them: the verifier's own proof
// histogram and counters, and what remains of the pass once parsing and
// proofs are taken out.
func recordVerify(r *result, d map[string]float64, n, passUS, parseUS float64) {
	proofUS := d["scooter_verify_proof_seconds_sum"] * 1e6 / n
	r.values["parser.us_per_pass"] = parseUS
	r.values["verify.proof_us_per_pass"] = proofUS
	r.values["migrate.verify_self_us_per_pass"] = passUS - parseUS - proofUS
	r.values["verify.proofs_per_pass"] = d["scooter_verify_proofs_total"] / n
	r.values["verify.queries_solved_per_pass"] = d["scooter_solver_solves_total"] / n
	r.values["verify.unknown_per_pass"] = sumPrefix(d, "scooter_verify_unknown_total") / n
	r.values["smt.decisions_per_pass"] = d["scooter_solver_decisions_total"] / n
	r.values["smt.propagations_per_pass"] = d["scooter_solver_propagations_total"] / n
	r.values["smt.conflicts_per_pass"] = d["scooter_solver_conflicts_total"] / n
	r.values["smt.theory_checks_per_pass"] = d["scooter_solver_theory_checks_total"] / n
}

// parseUS is the median time to parse the migration script, in
// microseconds.
func parseUS() float64 {
	var d durations
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, err := parser.ParseMigration(onlineScript); err != nil {
			return 0
		}
		d = append(d, time.Since(t))
	}
	return d.quantileUS(0.5)
}

func checkMigrated(s *social, extra []extraField) (bool, error) {
	s.w.SetEnforcement(false)
	defer s.w.SetEnforcement(true)
	objs, err := s.w.AsPrinc(scooter.Static("Unauthenticated")).Find("User")
	if err != nil {
		return false, err
	}
	index := make(map[scooter.ID]int, len(s.ids))
	for u, id := range s.ids {
		index[id] = u
	}
	if len(objs) != len(s.ids) {
		return false, nil
	}
	for _, o := range objs {
		u, ok := index[o.ID]
		if !ok {
			return false, nil
		}
		for _, e := range extra {
			if !field(o, e.name, true, e.value(u)) {
				return false, nil
			}
		}
	}
	return true, nil
}
