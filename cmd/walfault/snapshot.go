package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"scooter/internal/store/wal"
)

// The -snapshot mode sweeps damage through a compaction snapshot. A
// pristine log runs the workload, compacts, and logs a short tail after the
// snapshot. Each trial truncates the snapshot at one offset, or flips the
// byte at one offset, and reopens the directory. Snapshots are written
// atomically (tmp + fsync + rename), so a damaged one is never a torn tail
// to recover past: Open must fail, and must never restore a state other
// than the pristine one.
func runSnapshot(work string, nOps, maxTrials int, seed int64) {
	ops := workload(nOps)
	cut := len(ops) - len(ops)/4

	pristine := filepath.Join(work, "pristine")
	opts := wal.Options{CompactAfterBytes: -1}
	l, db, err := wal.Open(pristine, opts)
	if err != nil {
		fatal("open pristine: %v", err)
	}
	for _, f := range ops[:cut] {
		f(db)
	}
	if err := l.Compact(); err != nil {
		fatal("compact: %v", err)
	}
	for _, f := range ops[cut:] {
		f(db)
	}
	if err := db.DurabilityErr(); err != nil {
		fatal("workload: %v", err)
	}
	if err := l.Close(); err != nil {
		fatal("close pristine: %v", err)
	}
	want := snapshotAfter(ops, len(ops))

	entries, err := os.ReadDir(pristine)
	if err != nil {
		fatal("%v", err)
	}
	var snap string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".bin") {
			snap = e.Name()
		}
	}
	if snap == "" {
		fatal("compaction left no snapshot in %s", pristine)
	}
	data, err := os.ReadFile(filepath.Join(pristine, snap))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("snapshot: %d ops, %s of %d bytes covering the first %d\n", len(ops), snap, len(data), cut)

	type trial struct {
		off      int
		truncate bool
	}
	var candidates []trial
	for off := 0; off < len(data); off++ {
		candidates = append(candidates, trial{off, true}, trial{off, false})
	}
	if maxTrials > 0 && maxTrials < len(candidates) {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		candidates = candidates[:maxTrials]
		fmt.Printf("snapshot: bounded run, %d of the possible trials (seed %d)\n", len(candidates), seed)
	}

	refused := 0
	for _, c := range candidates {
		dir, kind := damagedCopy(work, pristine, snap, data, c.off, c.truncate)
		l, db, err := wal.Open(dir, opts)
		if err != nil {
			refused++
			continue
		}
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			fatal("%s@%s+%d: snapshot: %v", kind, snap, c.off, err)
		}
		l.Close()
		if buf.String() != want {
			fatal("%s@%s+%d: damaged snapshot restored a different state", kind, snap, c.off)
		}
	}
	fmt.Printf("snapshot damage trials: %d (torn writes and bit flips), %d refused by Open\n", len(candidates), refused)
	fmt.Println("no damaged snapshot misread")
}
