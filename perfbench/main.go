// Command perfbench is the repository's benchmark. It runs one of three
// single-process, single-client, closed-loop workloads — two on the request
// path (HTTP handler → ORM → policy → store → WAL) and one on the migration
// path (parse → typecheck → lower → SMT → verdict cache → backfill →
// journal) — checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload web-http --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken by timing calls into each layer's
// public functions from this package and by reading deltas of the
// program's own obs counters. The line before the result records the host
// and the settings. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit; the lists below are the
// ones BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"max_rss_mb", "MB"},
}

// perLayer lists every per-layer metric. A workload that does not run a
// layer reports 0 for it: on that workload the layer is predicted not to
// move anything.
var perLayer = []metricDef{
	{"handler.self_us_per_op", "us"},
	{"orm.self_us_per_op", "us"},
	{"orm.reads_checked_per_op", "count"},
	{"orm.fields_stripped_per_op", "count"},
	{"orm.lazy_reads_per_op", "count"},
	{"orm.lazy_writes_per_op", "count"},
	{"policy.us_per_op", "us"},
	{"policy.compiled_share", "ratio"},
	{"store.us_per_op", "us"},
	{"cache.miss_us_per_op", "us"},
	{"write.p50_us", "us"},
	{"write.p90_us", "us"},
	{"wal.us_per_write", "us"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.appends_per_write", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.batch_records_mean", "count"},
	{"wal.fsyncs_per_doc", "count"},
	{"wal.bytes_per_doc", "bytes"},
	{"snapshot.write_s", "s"},
	{"snapshot.bytes_per_live_byte", "ratio"},
	{"restart.s", "s"},
	{"recovery.s", "s"},
	{"recovery.records", "count"},
	{"disk.bytes_per_user_byte", "ratio"},
	{"parser.us_per_pass", "us"},
	{"migrate.verify_self_us_per_pass", "us"},
	{"verify.proof_us_per_pass", "us"},
	{"verify.proofs_per_pass", "count"},
	{"verify.cache_hit_ratio", "ratio"},
	{"verify.queries_solved_per_pass", "count"},
	{"verify.unknown_per_pass", "count"},
	{"smt.decisions_per_pass", "count"},
	{"smt.propagations_per_pass", "count"},
	{"smt.conflicts_per_pass", "count"},
	{"smt.theory_checks_per_pass", "count"},
	{"backfill.batch_ms", "ms"},
	{"backfill.batches", "count"},
	{"backfill.docs_per_batch", "count"},
	{"backfill.skipped_docs", "count"},
	{"migrate.verify_s", "s"},
	{"migrate.wall_s", "s"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"view.first_sweep_p50_us", "us"},
	{"view.first_sweep_p90_us", "us"},
	{"client.ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// result is what a workload measured. attempted and failed count timed
// operations; a failed operation returned a wrong output. correct covers
// the checks made once per run (start and end state).
type result struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
	settings          map[string]any
}

func newResult() *result {
	return &result{correct: true, values: map[string]float64{}, settings: map[string]any{}}
}

// check records one operation's output check.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

var workloads = map[string]func(config) (*result, error){
	"web-http":        runWebHTTP,
	"social-durable":  runSocialDurable,
	"online-addfield": runOnlineAddField,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/work", "directory for data directories")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s is %v\n", cfg.workload, d.name, v)
			os.Exit(1)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.settings["workload"] = cfg.workload
	res.settings["seed"] = cfg.seed
	res.settings["seconds"] = cfg.seconds
	res.settings["trace"] = cfg.trace
	info, _ := json.Marshal(map[string]any{"host": hostFingerprint(cfg.workdir), "settings": res.settings})
	fmt.Println(string(info))
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(line))
}
