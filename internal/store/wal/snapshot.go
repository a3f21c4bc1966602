package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"scooter/internal/store"
)

// Compaction snapshot layout (snap-%08d.bin):
//
//	[8B magic "SCSNAP01"]
//	frame: varint nextID, uvarint collection count, then per collection
//	       uvarint-length name, uvarint index count, uvarint-length index
//	       fields, uvarint document count
//	frame: zigzag varint id, document (store.AppendDoc)   — one per document
//
// Documents follow in header order, each collection's in ascending id
// order, so the header's counts say which collection a document frame
// belongs to. Frames are the WAL's own (frame.go). A snapshot is written
// atomically, so any damage — a bad magic or checksum, a payload that does
// not decode, a count mismatch, trailing bytes — is an error, never a
// truncation point.

const snapMagic = "SCSNAP01"

// encodeSnapshot renders the store at a consistent cut (store.ReadCut),
// running cut at the cut point. Documents are encoded straight from the
// store while its locks are held.
func encodeSnapshot(db *store.DB, cut func()) ([]byte, error) {
	var out []byte
	err := db.ReadCut(cut, func(nextID int64, colls []store.CutView) error {
		out = append(out, snapMagic...)
		out = openFrame(out)
		out = binary.AppendUvarint(binary.AppendVarint(out, nextID), uint64(len(colls)))
		for _, c := range colls {
			out = store.AppendString(out, c.Name())
			idx := c.Indexes()
			out = binary.AppendUvarint(out, uint64(len(idx)))
			for _, f := range idx {
				out = store.AppendString(out, f)
			}
			out = binary.AppendUvarint(out, uint64(c.Len()))
		}
		out = sealFrame(out, len(snapMagic))
		for _, c := range colls {
			err := c.Each(func(id store.ID, d store.Doc) error {
				start := len(out)
				var err error
				out, err = store.AppendDoc(binary.AppendVarint(openFrame(out), int64(id)), d)
				if err != nil {
					return fmt.Errorf("wal: snapshot of %s/%v: %w", c.Name(), id, err)
				}
				out = sealFrame(out, start)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// snapColl is one collection of a snapshot header.
type snapColl struct {
	c    *store.Collection
	docs uint64
}

// decodeSnapshot restores a store from a snapshot file's bytes, checking
// every frame's checksum, the document counts, and that nothing trails the
// last document. Field names come from names (nil for none).
func decodeSnapshot(buf []byte, names *store.Names) (*store.DB, error) {
	if len(buf) < len(snapMagic) || string(buf[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("bad snapshot magic")
	}
	var (
		db     *store.DB
		colls  []snapColl
		cur    int // collection the next document frame belongs to
		lastID store.ID
		inColl bool // a document of colls[cur] was already read
		err    error
	)
	good, clean := ScanFrames(buf, int64(len(snapMagic)), func(p []byte) bool {
		if db == nil {
			db, colls, err = decodeSnapHeader(p)
			return err == nil
		}
		for cur < len(colls) && colls[cur].docs == 0 {
			cur, inColl = cur+1, false
		}
		if cur == len(colls) {
			err = errors.New("more documents than the header counts")
			return false
		}
		r := names.Reader(p)
		id, doc := store.ID(r.Varint()), r.Doc()
		derr := r.End()
		if derr == nil && inColl && id <= lastID {
			derr = errors.New("out of id order")
		}
		if derr == nil {
			derr = colls[cur].c.Adopt(id, doc)
		}
		if derr != nil {
			err = fmt.Errorf("%s/%v: %w", colls[cur].c.Name(), id, derr)
			return false
		}
		lastID, inColl = id, true
		colls[cur].docs--
		return true
	})
	switch {
	case err != nil:
		return nil, err
	case !clean:
		return nil, fmt.Errorf("damaged frame at offset %d", good)
	case db == nil:
		return nil, errors.New("missing header")
	}
	for _, c := range colls {
		if c.docs != 0 {
			return nil, fmt.Errorf("collection %s is missing %d documents", c.c.Name(), c.docs)
		}
	}
	return db, nil
}

// decodeSnapHeader builds an empty store with the header's collections,
// indexes and id allocator, and returns each collection's document count.
func decodeSnapHeader(p []byte) (*store.DB, []snapColl, error) {
	r := store.NewReader(p)
	db := store.Open()
	db.AdvanceNextID(store.ID(r.Varint()))
	var colls []snapColl
	for i, n := 0, r.Count(); i < n; i++ {
		name := r.Str()
		if i > 0 && name <= colls[i-1].c.Name() {
			return nil, nil, fmt.Errorf("collection %q out of order", name)
		}
		c := db.Collection(name)
		for j, nidx := 0, r.Count(); j < nidx; j++ {
			c.EnsureIndex(r.Str())
		}
		colls = append(colls, snapColl{c: c, docs: r.Uvarint()})
	}
	if err := r.End(); err != nil {
		return nil, nil, err
	}
	return db, colls, nil
}

// writeSnapshot persists a snapshot atomically: write to a temp file,
// fsync, rename into place, fsync the directory.
func writeSnapshot(dir string, boundary uint64, data []byte) error {
	final := filepath.Join(dir, snapName(boundary))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}
