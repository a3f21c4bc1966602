package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scooter"
	"scooter/internal/obs"
	"scooter/internal/store"
)

// durations collects one operation class's latencies. Classes of different
// cost are kept in separate collections: a pooled percentile flips between
// the classes' own values from run to run.
type durations []time.Duration

// quantileUS returns the q-quantile in microseconds, interpolating
// linearly between the two nearest ranks.
func (d durations) quantileUS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := lo
	if hi+1 < len(s) {
		hi++
	}
	frac := pos - float64(lo)
	v := float64(s[lo])*(1-frac) + float64(s[hi])*frac
	return v / float64(time.Microsecond)
}

// rate is the ops completed per second of time spent in them: with one
// client in a closed loop, the throughput the client sees.
func (d durations) rate() float64 {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return ratio(float64(len(d)), t.Seconds())
}

// median of a non-empty slice of floats.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// settle collects garbage and returns freed memory to the OS, so one
// phase's garbage neither runs its collection inside the next phase's
// timings nor inflates its peak resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta measures the Go allocator and collector over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// record stores allocation and GC metrics per operation for ops operations.
func (m *memDelta) record(r *result, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(ops)
	r.values["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-m.before.TotalAlloc) / n
	r.values["runtime.allocs_per_op"] = float64(after.Mallocs-m.before.Mallocs) / n
	r.values["runtime.gc_cycles_per_kop"] = float64(after.NumGC-m.before.NumGC) * 1000 / n
}

// counters reads a registry's exposition — the same text /metrics serves —
// into sample name → value. Labelled samples keep their label set in the
// name; histogram buckets are dropped, their _sum and _count kept.
func counters(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line[:i], "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// registryDelta snapshots a registry before a phase; delta reports how far
// each sample moved since.
type registryDelta struct {
	reg    *obs.Registry
	before map[string]float64
}

func startDelta(reg *obs.Registry) *registryDelta {
	return &registryDelta{reg: reg, before: counters(reg)}
}

func (d *registryDelta) delta() map[string]float64 {
	after := counters(d.reg)
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - d.before[k]
	}
	return out
}

// sumPrefix adds up every sample whose name starts with prefix (all label
// values of one family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// hostFingerprint records what the numbers depend on besides the code.
func hostFingerprint(workdir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"workdir_fs": fsType(workdir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the file system holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// freshDir returns an empty directory under the work directory.
func freshDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%s", cfg.workload, os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// seeded returns the random stream a workload uses for one purpose
// (dataset, warm-up, op plan, ...), so the inputs for a purpose depend
// only on --seed and never on how much another stream consumed.
func seeded(cfg config, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.seed*1_000_003 + stream))
}

// stateCopy copies a workspace through SaveState: an in-memory workspace
// with the same specification and documents, for the same writes without
// a log behind them, and a bare store.DB restored from the same snapshot,
// for raw Collection calls. Both keep the original's document ids and
// indexes.
func stateCopy(w *scooter.Workspace) (*scooter.Workspace, *store.DB, error) {
	var buf bytes.Buffer
	if err := w.SaveState(&buf); err != nil {
		return nil, nil, err
	}
	var state struct {
		DB json.RawMessage `json:"db"`
	}
	if err := json.Unmarshal(buf.Bytes(), &state); err != nil {
		return nil, nil, err
	}
	db, err := store.Restore(bytes.NewReader(state.DB))
	if err != nil {
		return nil, nil, err
	}
	mem, err := scooter.LoadState(&buf)
	if err != nil {
		return nil, nil, err
	}
	return mem, db, nil
}
