package wal

import (
	"encoding/binary"
	"fmt"

	"scooter/internal/store"
)

// On-disk layout. Each segment starts with a 16-byte header:
//
//	[8B magic "SCWAL002"][8B little-endian segment index]
//
// followed by framed records (frame.go). A record payload is a fixed-order
// binary layout:
//
//	uvarint LSN, op byte, uvarint-length collection, zigzag varint id,
//	uvarint-length field, uvarint checkpoint boundary, [document]
//
// where the document (store.AppendDoc) is present exactly for inserts and
// updates. A record whose frame is short, whose length is implausible,
// whose checksum fails, or whose payload does not decode marks the torn
// tail: recovery truncates there and replays nothing after it.

const (
	segMagic   = "SCWAL002"
	headerSize = 16
	// segMagicV1 marked segments of JSON records; Open refuses them.
	segMagicV1 = "SCWAL001"
)

// Record op codes.
const (
	opInsert byte = iota + 1
	opUpdate
	opDelete
	opRemField
	opCreateColl
	opDropColl
	opIndex
	opCheckpoint
)

// mutationOps maps store mutation kinds to record op codes.
var mutationOps = map[store.MutationOp]byte{
	store.MutInsert:           opInsert,
	store.MutUpdate:           opUpdate,
	store.MutDelete:           opDelete,
	store.MutRemoveField:      opRemField,
	store.MutCreateCollection: opCreateColl,
	store.MutDropCollection:   opDropColl,
	store.MutCreateIndex:      opIndex,
}

// record is one decoded WAL entry. LSNs are assigned contiguously, so
// recovery can detect a gap (dropped record) as corruption.
type record struct {
	LSN   uint64
	Op    byte
	Coll  string
	ID    int64
	Field string
	// Snap marks a checkpoint: a snapshot covering every record before
	// this one exists under the segment index Snap.
	Snap uint64
	Doc  store.Doc
}

// hasDoc reports whether records with op carry a document.
func hasDoc(op byte) bool { return op == opInsert || op == opUpdate }

// encodeMutation renders a store mutation as a framed record. It runs
// synchronously inside Durability.Append (under the collection lock), so
// the Doc may alias caller memory.
func encodeMutation(lsn uint64, m store.Mutation) ([]byte, error) {
	op, ok := mutationOps[m.Op]
	if !ok {
		return nil, fmt.Errorf("wal: unknown mutation op %d", m.Op)
	}
	buf := openFrame(make([]byte, 0, 64+len(m.Coll)+len(m.Field)+16*len(m.Doc)))
	buf = appendRecordHead(buf, lsn, op, m.Coll, int64(m.ID), m.Field, 0)
	if hasDoc(op) {
		var err error
		if buf, err = store.AppendDoc(buf, m.Doc); err != nil {
			return nil, fmt.Errorf("wal: encoding %s/%v: %w", m.Coll, m.ID, err)
		}
	}
	return sealFrame(buf, 0), nil
}

// encodeCheckpoint renders a checkpoint record for a compaction boundary.
func encodeCheckpoint(lsn, boundary uint64) []byte {
	return sealFrame(appendRecordHead(openFrame(nil), lsn, opCheckpoint, "", 0, "", boundary), 0)
}

func appendRecordHead(dst []byte, lsn uint64, op byte, coll string, id int64, field string, snap uint64) []byte {
	dst = append(binary.AppendUvarint(dst, lsn), op)
	dst = binary.AppendVarint(store.AppendString(dst, coll), id)
	return binary.AppendUvarint(store.AppendString(dst, field), snap)
}

// decodeRecord parses one record payload, document included; the
// document's field names come from names (nil for none).
func decodeRecord(p []byte, names *store.Names) (record, error) {
	r := names.Reader(p)
	rec := record{LSN: r.Uvarint(), Op: r.Byte(), Coll: r.Str(), ID: r.Varint(), Field: r.Str(), Snap: r.Uvarint()}
	if hasDoc(rec.Op) {
		rec.Doc = r.Doc()
	}
	if err := r.End(); err != nil {
		return record{}, err
	}
	if rec.Op < opInsert || rec.Op > opCheckpoint {
		return record{}, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	return rec, nil
}

// segmentHeader renders the 16-byte header of a segment file.
func segmentHeader(seg uint64) []byte {
	h := make([]byte, headerSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint64(h[8:], seg)
	return h
}

// ParsedFrame is one decoded record frame, as shipped between replication
// peers. Parsing and applying are split so a follower can validate a frame
// and learn its LSN before mirroring the bytes into its own log, then apply
// the record to its store without re-decoding.
type ParsedFrame struct {
	data []byte
	rec  record
}

// LSN returns the record's log sequence number.
func (p *ParsedFrame) LSN() uint64 { return p.rec.LSN }

// Data returns the frame bytes exactly as framed on disk and on the wire.
func (p *ParsedFrame) Data() []byte { return p.data }

// IsCheckpoint reports whether the record is a compaction checkpoint (a
// boundary marker that mutates nothing).
func (p *ParsedFrame) IsCheckpoint() bool { return p.rec.Op == opCheckpoint }

// Apply replays the record into db, handing it the decoded document; call
// it at most once. The database must have no durability hook attached when
// the caller mirrors frames itself.
func (p *ParsedFrame) Apply(db *store.DB) error { return applyRecord(db, p.rec) }

// ParseFrame validates one framed record — length, checksum, payload — and
// returns its decoded form. It rejects trailing bytes: a frame is exactly
// one record.
func ParseFrame(frame []byte) (*ParsedFrame, error) {
	var payload []byte
	frames := 0
	if _, clean := ScanFrames(frame, 0, func(p []byte) bool {
		payload = p
		frames++
		return frames == 1
	}); !clean || frames != 1 {
		return nil, fmt.Errorf("wal: %d-byte buffer is not exactly one well-formed frame", len(frame))
	}
	rec, err := decodeRecord(payload, nil)
	if err != nil {
		return nil, fmt.Errorf("wal: frame payload: %w", err)
	}
	return &ParsedFrame{data: frame, rec: rec}, nil
}

// segScan is the result of parsing one segment file.
type segScan struct {
	recs []record
	ends []int64 // ends[i]: byte offset just past recs[i]
	good int64   // offset just past the last well-formed record
	ok   bool    // whole file consumed without a torn tail
	// headerOK is false when the file lacks a valid header for its index;
	// nothing in it is recoverable.
	headerOK bool
}

// parseSegment reads the records of one segment from buf (the whole file).
// Everything before the torn tail (see ScanFrames; a payload that does not
// decode is torn too) is returned, with ok false when there is a tail.
// Recovery truncates at good and never fails or panics on a torn tail.
func parseSegment(buf []byte, seg uint64, names *store.Names) segScan {
	if len(buf) < headerSize || string(buf[:8]) != segMagic ||
		binary.LittleEndian.Uint64(buf[8:16]) != seg {
		return segScan{}
	}
	s := segScan{headerOK: true}
	end := int64(headerSize)
	s.good, s.ok = ScanFrames(buf, headerSize, func(payload []byte) bool {
		rec, err := decodeRecord(payload, names)
		if err != nil {
			return false
		}
		end += frameSize + int64(len(payload))
		s.recs = append(s.recs, rec)
		s.ends = append(s.ends, end)
		return true
	})
	return s
}
