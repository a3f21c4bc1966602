package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Record framing, shared by every file format in the durable layer: WAL
// segments, compaction snapshots, and the persistent verdict store
// (internal/verify). Each format has its own magic header and payload
// schema, but all frame their records as
//
//	[4B little-endian payload length][4B CRC32C(payload)][payload]
//
// so they share one torn-tail discipline and one checksum convention.
// sealFrame is the only writer of a frame header and ScanFrames the only
// validator of one (the live-tail reader, readFrameAt, peeks at a length
// only to size its read, then validates through ScanFrames).

const (
	frameSize    = 8
	maxRecordLen = 64 << 20 // sanity bound on a single record
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// openFrame reserves a frame header at the end of dst; append the payload
// after it and close the frame with sealFrame.
func openFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealFrame fills in the header of the frame opened at offset start, whose
// payload runs to the end of buf.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// AppendFrame appends payload to dst as one framed record.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	return sealFrame(append(openFrame(dst), payload...), start)
}

// ScanFrames walks framed records in buf starting at offset start, calling
// fn with each well-formed payload until fn returns false. It returns the
// byte offset just past the last accepted frame and whether the whole
// buffer was consumed. A frame that is short, whose length is implausible,
// whose checksum fails, or whose payload fn rejects marks the torn tail:
// scanning stops there (clean=false) without an error or a panic, and the
// caller truncates at good or refuses the file.
func ScanFrames(buf []byte, start int64, fn func(payload []byte) bool) (good int64, clean bool) {
	off := start
	for {
		rest := buf[off:]
		if len(rest) == 0 {
			return off, true
		}
		if len(rest) < frameSize {
			return off, false
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxRecordLen || frameSize+n > int64(len(rest)) {
			return off, false
		}
		payload := rest[frameSize : frameSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, false
		}
		if !fn(payload) {
			return off, false
		}
		off += frameSize + n
	}
}
