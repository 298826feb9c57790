package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// All integers are little-endian. The CRC covers the payload only; the
// length word is validated against a hard cap before any allocation so
// a corrupt length can never trigger an over-allocation.

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
	// The cap keeps the scanner's allocation bounded on corrupt input.
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

// parseRecord decodes one frame payload. The returned record's Data
// aliases payload.
func parseRecord(payload []byte) (record, error) {
	var rec record
	if len(payload) < 1+8+2 {
		return rec, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(payload))
	}
	rec.Kind = payload[0]
	rec.Seq = binary.LittleEndian.Uint64(payload[1:])
	keyLen := int(binary.LittleEndian.Uint16(payload[9:]))
	payload = payload[11:]
	if keyLen == 0 || keyLen > maxKeyLen || keyLen > len(payload) {
		return rec, fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	rec.Key = string(payload[:keyLen])
	payload = payload[keyLen:]
	switch rec.Kind {
	case recordTombstone:
		if len(payload) != 0 {
			return rec, fmt.Errorf("%w: tombstone with %d trailing bytes", ErrCorrupt, len(payload))
		}
		return rec, nil
	case recordBlock:
	default:
		return rec, fmt.Errorf("%w: kind %d", ErrCorrupt, rec.Kind)
	}
	if len(payload) < 4+8+1+1+4+8 {
		return rec, fmt.Errorf("%w: short block record", ErrCorrupt)
	}
	rec.BlockIdx = binary.LittleEndian.Uint32(payload)
	rec.TotalVals = binary.LittleEndian.Uint64(payload[4:])
	rec.Width = payload[12]
	rec.Enc = payload[13]
	rec.ValCount = binary.LittleEndian.Uint32(payload[14:])
	rec.T1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[18:]))
	rec.Data = payload[26:]
	if rec.Width != 32 && rec.Width != 64 {
		return rec, fmt.Errorf("%w: width %d", ErrCorrupt, rec.Width)
	}
	if rec.Enc != encAVR && rec.Enc != encLossless {
		return rec, fmt.Errorf("%w: encoding %d", ErrCorrupt, rec.Enc)
	}
	if rec.ValCount == 0 || rec.ValCount > BlockValues {
		return rec, fmt.Errorf("%w: block value count %d", ErrCorrupt, rec.ValCount)
	}
	if rec.TotalVals == 0 || uint64(rec.BlockIdx)*BlockValues >= rec.TotalVals {
		return rec, fmt.Errorf("%w: block %d beyond vector of %d values",
			ErrCorrupt, rec.BlockIdx, rec.TotalVals)
	}
	return rec, nil
}

// blockRecordOverhead is what a block record's payload holds besides its
// data: the fields common to every record (kind, seq, key length), the
// key, and the block fields.
func blockRecordOverhead(keyLen int) int { return 1 + 8 + 2 + keyLen + 4 + 8 + 1 + 1 + 4 + 8 }

// blockRecordData validates the structure of a block-record frame
// payload and returns its encoded data bytes (aliasing payload). It is
// the read path's allocation-free subset of parseRecord: the fields the
// reader needs (enc, valCount, width) already live in the blockRef, so
// only the layout is checked and the key is never materialised.
func blockRecordData(payload []byte) ([]byte, error) {
	if len(payload) < 1+8+2 {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(payload))
	}
	if payload[0] != recordBlock {
		return nil, fmt.Errorf("%w: kind %d", ErrCorrupt, payload[0])
	}
	keyLen := int(binary.LittleEndian.Uint16(payload[9:]))
	payload = payload[11:]
	if keyLen == 0 || keyLen > maxKeyLen || keyLen > len(payload) {
		return nil, fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	payload = payload[keyLen:]
	if len(payload) < 4+8+1+1+4+8 {
		return nil, fmt.Errorf("%w: short block record", ErrCorrupt)
	}
	return payload[26:], nil
}

// scanSegment reads a segment stream and calls fn for each intact frame
// with the parsed record, the frame's file offset and its full length
// (header included). It returns the offset of the first byte after the
// last intact frame. A short or checksum-failing tail yields ErrTorn
// (wrapped); a parse failure inside an intact frame yields ErrCorrupt;
// fn's error aborts the scan as-is.
func scanSegment(r io.Reader, fn func(rec record, off int64, frameLen int64) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header", ErrTorn)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(segMagic):]); v != segVersion {
		return 0, fmt.Errorf("%w: segment version %d", ErrCorrupt, v)
	}
	off := int64(segHeaderLen)
	payload := make([]byte, 0, 1<<12)
	for {
		var fh [frameHeaderLen]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				return off, nil // clean end on a frame boundary
			}
			return off, fmt.Errorf("%w: short frame header", ErrTorn)
		}
		n := binary.LittleEndian.Uint32(fh[:])
		want := binary.LittleEndian.Uint32(fh[4:])
		if n == 0 || n > maxFramePayload {
			// A wild length word is indistinguishable from garbage after
			// a torn write; either way nothing past it is trustworthy.
			return off, fmt.Errorf("%w: frame length %d", ErrTorn, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, fmt.Errorf("%w: short frame payload", ErrTorn)
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return off, fmt.Errorf("%w: frame CRC mismatch at offset %d", ErrTorn, off)
		}
		rec, err := parseRecord(payload)
		if err != nil {
			return off, err
		}
		frameLen := int64(frameHeaderLen) + int64(n)
		if err := fn(rec, off, frameLen); err != nil {
			return off, err
		}
		off += frameLen
	}
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

// readUint32 and crc32Of are small aliases for the read-back path.
func readUint32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func crc32Of(b []byte) uint32    { return crc32.Checksum(b, castagnoli) }

// segmentHeader returns the fixed file header.
func segmentHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[len(segMagic):], segVersion)
	return hdr
}
