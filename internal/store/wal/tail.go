package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// ErrCompacted reports that the requested LSN precedes the oldest retained
// segment: compaction folded it into a snapshot, so a reader must bootstrap
// from the snapshot instead of the log.
var ErrCompacted = errors.New("wal: requested LSN was compacted into a snapshot")

// ErrTailStopped reports that a Tail read was cancelled via its stop
// channel.
var ErrTailStopped = errors.New("wal: tail stopped")

// Frame is one log record in its on-disk (and on-wire) framing.
type Frame struct {
	LSN  uint64
	Data []byte // [4B len][4B CRC32C][payload], exactly as stored
}

// Tail is a streaming reader that follows the live log: it yields every
// durable record from a starting LSN, in order, blocking for new records as
// they are committed, and crosses segment rotations and compaction cuts
// transparently. The replication server drives one Tail per follower.
//
// A Tail never yields a record that is not yet durable: shipping an
// unsynced record could leave a follower with state the primary loses in a
// crash, which would break the committed-prefix guarantee. All methods
// except PendingBytes must be called from one goroutine.
type Tail struct {
	l *Log
	// expect is the next LSN whose durability gates the next read; frames
	// below emitFrom are read (they share the file) but not yielded.
	expect   uint64
	emitFrom uint64
	f        *os.File
	seg      atomic.Uint64
	off      atomic.Int64
}

// TailFrom returns a Tail yielding every record with LSN >= from (from 0
// is treated as 1). It fails with ErrCompacted when records at from no
// longer live in the log; the caller then bootstraps via BootstrapTail.
func (l *Log) TailFrom(from uint64) (*Tail, error) {
	if from == 0 {
		from = 1
	}
	// Compaction can prune files between the directory scan and the probe;
	// rescan when a probe hits a vanished file.
	for attempt := 0; ; attempt++ {
		t, err := l.tailFrom(from)
		if err == nil || err == ErrCompacted || attempt >= 5 {
			return t, err
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
}

func (l *Log) tailFrom(from uint64) (*Tail, error) {
	segs, snaps, err := scanDir(l.dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("wal: no segments in %s", l.dir)
	}
	idxs := make([]uint64, 0, len(segs))
	for idx := range segs {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })

	// Choose the newest segment whose first record is at or before from.
	// Segments without a complete first record (freshly rotated) cannot
	// anchor; on a log with no records at all, start at the oldest segment.
	start := uint64(0)
	found := false
	for i := len(idxs) - 1; i >= 0; i-- {
		first, has, err := firstLSNOf(filepath.Join(l.dir, segs[idxs[i]]), idxs[i])
		if err != nil {
			return nil, err
		}
		if has && first <= from {
			start, found = idxs[i], true
			break
		}
	}
	if !found {
		if len(snaps) > 0 {
			// The history before the oldest retained record lives only in a
			// snapshot now.
			return nil, ErrCompacted
		}
		start = idxs[0] // fresh log: every future record lands at or after it
	}
	t := &Tail{l: l, expect: from, emitFrom: from}
	t.seg.Store(start)
	t.off.Store(headerSize)
	return t, nil
}

// BootstrapTail serves a follower that is too far behind to stream: it
// returns the newest snapshot, the LSN its state corresponds to, and a Tail
// positioned at the snapshot's boundary segment (whose first record is the
// compaction checkpoint immediately after the cut).
func (l *Log) BootstrapTail() (snapshot []byte, snapLSN uint64, t *Tail, err error) {
	for attempt := 0; attempt < 5; attempt++ {
		_, snaps, err := scanDir(l.dir)
		if err != nil {
			return nil, 0, nil, err
		}
		if len(snaps) == 0 {
			return nil, 0, nil, errors.New("wal: no snapshot to bootstrap from")
		}
		var boundary uint64
		for idx := range snaps {
			if idx > boundary {
				boundary = idx
			}
		}
		data, err := os.ReadFile(filepath.Join(l.dir, snaps[boundary]))
		if errors.Is(err, os.ErrNotExist) {
			continue // a newer compaction pruned it; rescan
		}
		if err != nil {
			return nil, 0, nil, err
		}
		first, has, err := firstLSNOf(filepath.Join(l.dir, segName(boundary)), boundary)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, nil, err
		}
		if !has {
			return nil, 0, nil, fmt.Errorf("wal: boundary segment %d has no checkpoint record", boundary)
		}
		t := &Tail{l: l, expect: first, emitFrom: first}
		t.seg.Store(boundary)
		t.off.Store(headerSize)
		return data, first - 1, t, nil
	}
	return nil, 0, nil, errors.New("wal: snapshot kept vanishing under concurrent compactions")
}

// firstLSNOf reads the LSN of a segment's first record. has is false when
// the segment holds no complete record yet.
func firstLSNOf(path string, seg uint64) (lsn uint64, has bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if err := checkSegmentHeader(f, path); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("wal: %s: bad segment header", path)
		}
		return 0, false, err
	}
	fr, err := readFrameAt(f, headerSize)
	switch {
	case err == nil:
		return fr.LSN, true, nil
	case err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, errBadFrame):
		return 0, false, nil // empty, or a torn or mid-write first record: cannot anchor
	default:
		return 0, false, err
	}
}

// checkSegmentHeader checks a segment file's magic. It returns
// io.ErrUnexpectedEOF when the file is shorter than a header.
func checkSegmentHeader(f io.ReaderAt, path string) error {
	var hdr [headerSize]byte
	if n, err := f.ReadAt(hdr[:], 0); n < headerSize {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("wal: %s: bad segment header", path)
	}
	return nil
}

// errBadFrame reports a frame whose length is implausible, whose checksum
// fails, or whose payload does not start with an LSN.
var errBadFrame = errors.New("wal: malformed frame")

// readFrameAt reads the frame that starts at off in f. It checks the frame
// (ScanFrames) and reads the LSN at the head of its payload, without
// decoding the rest of the record: shipping a record needs only its LSN,
// and the follower validates the record in full before applying it. It
// returns io.EOF when off is the end of the file, io.ErrUnexpectedEOF when
// the file ends inside the frame, and an errBadFrame error for a damaged
// frame.
func readFrameAt(f io.ReaderAt, off int64) (Frame, error) {
	var hdr [frameSize]byte
	if n, err := f.ReadAt(hdr[:], off); n < frameSize {
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:4]))
	if plen > maxRecordLen {
		return Frame{}, fmt.Errorf("%w: implausible record length %d", errBadFrame, plen)
	}
	data := make([]byte, frameSize+plen)
	copy(data, hdr[:])
	if _, err := f.ReadAt(data[frameSize:], off+frameSize); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	var payload []byte
	if _, clean := ScanFrames(data, 0, func(p []byte) bool { payload = p; return true }); !clean {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	lsn, n := binary.Uvarint(payload)
	if n <= 0 {
		return Frame{}, fmt.Errorf("%w: payload does not start with an LSN", errBadFrame)
	}
	return Frame{LSN: lsn, Data: data}, nil
}

// Next blocks until the next record is durable and returns it. It returns
// io.EOF once the log has shut down and every durable record was yielded,
// ErrTailStopped when stop is closed, and ErrCompacted when a slow tail's
// next segment was pruned by compaction (the reader must re-bootstrap).
func (t *Tail) Next(stop <-chan struct{}) (Frame, error) {
	for {
		// Durability gate: the record about to be read is at or before
		// expect, so once expect is durable the bytes are final.
		for {
			durable, ch, live := t.l.durableState()
			if durable >= t.expect {
				break
			}
			if !live {
				if err := t.l.Err(); err != nil {
					return Frame{}, err
				}
				return Frame{}, io.EOF
			}
			select {
			case <-ch:
			case <-stop:
				return Frame{}, ErrTailStopped
			}
		}
		fr, err := t.readFrame()
		if err == errRetryLater {
			// Segment rotation in flight: the durable record exists but its
			// file is still being created. Rare and short-lived.
			select {
			case <-time.After(time.Millisecond):
			case <-stop:
				return Frame{}, ErrTailStopped
			}
			continue
		}
		if err != nil {
			return Frame{}, err
		}
		if fr.LSN < t.emitFrom {
			t.expect = fr.LSN + 1
			if t.expect < t.emitFrom {
				t.expect = t.emitFrom
			}
			continue
		}
		if fr.LSN != t.expect {
			return Frame{}, fmt.Errorf("wal: tail read LSN %d where %d was expected", fr.LSN, t.expect)
		}
		t.expect = fr.LSN + 1
		return fr, nil
	}
}

// errRetryLater signals a transient race (segment rotation mid-flight).
var errRetryLater = errors.New("wal: tail retry")

// readFrame reads the record at the cursor, advancing across segment
// boundaries. The caller has already established that the record is
// durable, so a malformed frame here is real corruption, not a torn tail.
func (t *Tail) readFrame() (Frame, error) {
	for {
		if t.f == nil {
			path := filepath.Join(t.l.dir, segName(t.seg.Load()))
			f, err := os.Open(path)
			if errors.Is(err, os.ErrNotExist) {
				// Either rotation is mid-flight (file about to appear) or a
				// compaction pruned the segment under a slow tail.
				if t.prunedAway() {
					return Frame{}, ErrCompacted
				}
				return Frame{}, errRetryLater
			}
			if err != nil {
				return Frame{}, err
			}
			if err := checkSegmentHeader(f, path); err != nil {
				f.Close()
				if err == io.ErrUnexpectedEOF {
					return Frame{}, errRetryLater // header still being written
				}
				return Frame{}, err
			}
			t.f = f
			t.off.Store(headerSize)
		}
		off := t.off.Load()
		fr, err := readFrameAt(t.f, off)
		switch {
		case err == io.EOF:
			// Exhausted at a record boundary: move on if a newer segment
			// exists (rotation fully flushes the old one first), otherwise
			// the durable record is still landing in this file.
			next := t.seg.Load() + 1
			if _, serr := os.Stat(filepath.Join(t.l.dir, segName(next))); serr == nil {
				t.f.Close()
				t.f = nil
				t.seg.Store(next)
				continue
			}
			return Frame{}, errRetryLater
		case err == io.ErrUnexpectedEOF:
			return Frame{}, errRetryLater
		case err != nil:
			return Frame{}, fmt.Errorf("wal: tail read at %s+%d: %w", segName(t.seg.Load()), off, err)
		}
		t.off.Store(off + int64(len(fr.Data)))
		return fr, nil
	}
}

// prunedAway reports whether the cursor segment is older than the oldest
// segment still on disk — i.e. compaction removed it.
func (t *Tail) prunedAway() bool {
	segs, _, err := scanDir(t.l.dir)
	if err != nil || len(segs) == 0 {
		return false
	}
	oldest := uint64(0)
	first := true
	for idx := range segs {
		if first || idx < oldest {
			oldest, first = idx, false
		}
	}
	return t.seg.Load() < oldest
}

// PendingBytes estimates how many logged bytes lie past the cursor — the
// replication backlog for this tail's follower. Safe to call from another
// goroutine while Next runs.
func (t *Tail) PendingBytes() int64 {
	segs, _, err := scanDir(t.l.dir)
	if err != nil {
		return 0
	}
	cur, off := t.seg.Load(), t.off.Load()
	var pending int64
	for idx, name := range segs {
		st, err := os.Stat(filepath.Join(t.l.dir, name))
		if err != nil {
			continue
		}
		switch {
		case idx == cur:
			if d := st.Size() - off; d > 0 {
				pending += d
			}
		case idx > cur:
			if d := st.Size() - headerSize; d > 0 {
				pending += d
			}
		}
	}
	return pending
}

// Close releases the tail's file handle. The tail must not be used after.
func (t *Tail) Close() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// WriteBootstrapSnapshot seeds a fresh log directory with a snapshot at the
// given boundary, the way a replication follower bootstraps: Open then
// restores the snapshot and appends mirrored frames after it. The directory
// is created if needed; it must not already hold a log.
func WriteBootstrapSnapshot(dir string, boundary uint64, snapshot []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return fmt.Errorf("wal: bootstrap into non-empty log directory %s", dir)
	}
	return writeSnapshot(dir, boundary, snapshot)
}
