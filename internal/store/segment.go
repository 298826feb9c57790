package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Segment wire format. A segment file is a 12-byte header followed by
// append-only CRC-guarded frames; nothing in a segment is ever mutated
// in place, so recovery is a forward scan that stops at the first frame
// that fails its checks (a torn tail after a crash mid-append).
//
//	header: 8-byte magic "AVRSEG1\n" | uint32 version (1)
//	frame:  uint32 payload length | uint32 CRC-32C of payload | payload
//
// Frame payload (one record):
//
//	byte   kind (1 = block, 2 = tombstone)
//	uint64 seq        put/delete sequence number (monotonic per store)
//	uint16 key length | key bytes
//	-- block records only --
//	uint32 block index within the put's vector
//	uint64 total values in the put's vector
//	byte   value width in bits (32 or 64)
//	byte   encoding (0 = AVR codec stream, 1 = lossless BDI lines)
//	uint32 values in this block (≤ BlockValues)
//	uint64 float64 bits of the t1 threshold the encoder ran at
//	data   encoded block payload
//
// All integers are little-endian. The CRC covers the payload only. One
// function, verifyFrame, checks a frame — length word, CRC, record layout
// — for everything that takes one off a disk: a read through a ref, the
// recovery scan and the compaction scan (walkFrames, in store.go, walks a
// segment with it a bounded chunk at a time). The length word is held to
// a hard cap, or to the ref, before anything is sized by it.

const (
	segMagic   = "AVRSEG1\n"
	segVersion = 1
	// segHeaderLen is the fixed file header size.
	segHeaderLen = len(segMagic) + 4
	// frameHeaderLen is the per-frame length + CRC prefix.
	frameHeaderLen = 8
	// maxKeyLen bounds store keys.
	maxKeyLen = 1024
	// maxFramePayload caps a frame payload. The largest legitimate
	// record is a lossless fp64 block: BlockValues×8 raw bytes framed
	// into 65-byte BDI lines plus the record header — well under 64 KiB.
	// The cap keeps a scan's chunk bounded on corrupt input.
	maxFramePayload = 1 << 16

	recordBlock     = 1
	recordTombstone = 2

	// Block encodings.
	encAVR      = 0
	encLossless = 1
)

// castagnoli is the CRC-32C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Scan error taxonomy. ErrTorn marks damage consistent with a crash
// mid-append (short file, short frame, checksum mismatch at the tail):
// Open truncates a torn tail segment and continues. Anything else —
// a frame whose checksum passes but whose record does not parse — is
// real corruption and fails the open.
var (
	ErrTorn    = errors.New("store: torn segment tail")
	ErrCorrupt = errors.New("store: corrupt segment record")
)

// record is one parsed frame payload.
type record struct {
	Kind      byte
	Seq       uint64
	Key       string
	BlockIdx  uint32
	TotalVals uint64
	Width     uint8
	Enc       uint8
	ValCount  uint32
	T1        float64
	Data      []byte
}

// appendRecord serialises rec into buf (which is returned, grown).
func appendRecord(buf []byte, rec *record) []byte {
	buf = append(buf, rec.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Key)))
	buf = append(buf, rec.Key...)
	if rec.Kind == recordBlock {
		buf = binary.LittleEndian.AppendUint32(buf, rec.BlockIdx)
		buf = binary.LittleEndian.AppendUint64(buf, rec.TotalVals)
		buf = append(buf, rec.Width, rec.Enc)
		buf = binary.LittleEndian.AppendUint32(buf, rec.ValCount)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.T1))
		buf = append(buf, rec.Data...)
	}
	return buf
}

// Record layout: the fields every record starts with, then — after the
// key — the block fields, their offsets counted from the end of the key.
const (
	recSeqOff    = 1
	recKeyLenOff = recSeqOff + 8
	recKeyOff    = recKeyLenOff + 2

	blkTotalOff    = 4
	blkWidthOff    = blkTotalOff + 8
	blkEncOff      = blkWidthOff + 1
	blkValCountOff = blkEncOff + 1
	blkT1Off       = blkValCountOff + 4
	blkDataOff     = blkT1Off + 8
)

// blockRecordOverhead is what a block record's payload holds besides its
// data: the fields common to every record (kind, seq, key length), the
// key, and the block fields.
func blockRecordOverhead(keyLen int) int { return recKeyOff + keyLen + blkDataOff }

// parseRecord checks one frame payload's layout and decodes it. Nothing
// is copied: the record's Data aliases payload, and the key comes back as
// bytes of payload with rec.Key left unset — a scan makes the string, a
// read, which resolved its key before it got here, does without.
func parseRecord(payload []byte) (rec record, key []byte, err error) {
	if len(payload) < recKeyOff {
		return rec, nil, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(payload))
	}
	rec.Kind = payload[0]
	rec.Seq = binary.LittleEndian.Uint64(payload[recSeqOff:])
	keyLen := int(binary.LittleEndian.Uint16(payload[recKeyLenOff:]))
	payload = payload[recKeyOff:]
	if keyLen == 0 || keyLen > maxKeyLen || keyLen > len(payload) {
		return rec, nil, fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	key, payload = payload[:keyLen], payload[keyLen:]
	switch rec.Kind {
	case recordTombstone:
		if len(payload) != 0 {
			return rec, nil, fmt.Errorf("%w: tombstone with %d trailing bytes", ErrCorrupt, len(payload))
		}
		return rec, key, nil
	case recordBlock:
	default:
		return rec, nil, fmt.Errorf("%w: kind %d", ErrCorrupt, rec.Kind)
	}
	if len(payload) < blkDataOff {
		return rec, nil, fmt.Errorf("%w: short block record", ErrCorrupt)
	}
	rec.BlockIdx = binary.LittleEndian.Uint32(payload)
	rec.TotalVals = binary.LittleEndian.Uint64(payload[blkTotalOff:])
	rec.Width = payload[blkWidthOff]
	rec.Enc = payload[blkEncOff]
	rec.ValCount = binary.LittleEndian.Uint32(payload[blkValCountOff:])
	rec.T1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[blkT1Off:]))
	rec.Data = payload[blkDataOff:]
	if rec.Width != 32 && rec.Width != 64 {
		return rec, nil, fmt.Errorf("%w: width %d", ErrCorrupt, rec.Width)
	}
	if rec.Enc != encAVR && rec.Enc != encLossless {
		return rec, nil, fmt.Errorf("%w: encoding %d", ErrCorrupt, rec.Enc)
	}
	if rec.ValCount == 0 || rec.ValCount > BlockValues {
		return rec, nil, fmt.Errorf("%w: block value count %d", ErrCorrupt, rec.ValCount)
	}
	if rec.TotalVals == 0 || uint64(rec.BlockIdx)*BlockValues >= rec.TotalVals {
		return rec, nil, fmt.Errorf("%w: block %d beyond vector of %d values",
			ErrCorrupt, rec.BlockIdx, rec.TotalVals)
	}
	return rec, key, nil
}

// errShortFrame reports a frame that runs past the bytes at hand: a torn
// tail at the end of a segment, and inside one the scan's cue to fetch
// its next chunk from this frame on.
var errShortFrame = fmt.Errorf("%w: short frame", ErrTorn)

// verifyFrame is the one frame verifier — every frame the store takes off
// a disk, to serve it, to index it at recovery or to move it in a
// compaction pass, comes through here. It checks the frame at the head of
// buf: the length word, the CRC-32C of the payload, the record's layout.
// A caller reading a frame back through its ref passes the ref's length
// as want and exactly that many bytes; the frame was whole when it was
// indexed, so any damage is ErrCorrupt. A scan passes 0: the length word
// is held to the payload cap, and damage up to the checksum cannot be
// told from a crash mid-append, so it is ErrTorn — errShortFrame when
// the frame just does not end inside buf. Either way a frame whose
// checksum passes and whose record does not parse is ErrCorrupt. It
// returns what parseRecord does and the frame's length, header included.
func verifyFrame(buf []byte, want int64) (rec record, key []byte, frameLen int64, err error) {
	if len(buf) < frameHeaderLen {
		return rec, nil, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(buf)
	frameLen = frameHeaderLen + int64(n)
	damage := ErrTorn
	if want != 0 {
		damage = ErrCorrupt
		if frameLen != want {
			return rec, nil, 0, fmt.Errorf("%w: frame length changed underfoot", ErrCorrupt)
		}
	} else if n == 0 || n > maxFramePayload {
		// A wild length word is indistinguishable from garbage after a
		// torn write; either way nothing past it is trustworthy.
		return rec, nil, 0, fmt.Errorf("%w: frame length %d", ErrTorn, n)
	}
	if int64(len(buf)) < frameLen {
		return rec, nil, 0, errShortFrame
	}
	payload := buf[frameHeaderLen:frameLen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return rec, nil, 0, fmt.Errorf("%w: frame CRC mismatch", damage)
	}
	rec, key, err = parseRecord(payload)
	return rec, key, frameLen, err
}

// appendFrame serialises rec as one CRC-guarded frame into buf.
func appendFrame(buf []byte, rec *record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = appendRecord(buf, rec)
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// segmentHeader returns the fixed file header.
func segmentHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[len(segMagic):], segVersion)
	return hdr
}
