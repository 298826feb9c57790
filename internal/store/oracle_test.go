package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"avr/internal/vec"
)

// The reference segment scanner: scanSegment and the parseRecord under it
// as recovery and compaction ran them up to ISSUE 21, kept here verbatim
// (parseRecord under the name refParseRecord, its offsets still written
// out as numbers) as the oracle the one verifier and its chunked walk
// (verifyFrame, walkFrames) are held to. The reference reads a stream
// front to back with its own length, CRC and layout checks; nothing
// outside the tests runs it.

// refParseRecord decodes one frame payload. The returned record's Data
// aliases payload.
func refParseRecord(payload []byte) (record, error) {
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
		rec, err := refParseRecord(payload)
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

// walkImage runs walkFrames over an in-memory segment image, fetched
// chunk bytes at a time, behind the reference's signature.
func walkImage(img []byte, chunk int, fn func(rec record, off, frameLen int64) error) (int64, error) {
	return walkFrames(func(off int64) ([]byte, error) {
		end := min(int(off)+chunk, len(img))
		if end == len(img) {
			return img[off:end], io.EOF
		}
		return img[off:end], nil
	}, func(_ int64, _ []byte, frames []segFrame) error {
		for _, fr := range frames {
			if err := fn(fr.rec, fr.off, fr.n); err != nil {
				return err
			}
		}
		return nil
	})
}

// minChunk is the smallest chunk walkFrames' contract allows a fetch to
// return short of the end: the header and one maximal frame.
const minChunk = segHeaderLen + frameHeaderLen + maxFramePayload

// scanSig is what one delivered frame looked like, in comparable form.
type scanSig struct {
	kind, width, enc   uint8
	seq, totalVals     uint64
	key                string
	blockIdx, valCount uint32
	t1                 float64
	dataLen            int
	dataCRC            uint32
	off, size          int64
}

// scanVerdict is everything a scan reports.
type scanVerdict struct {
	frames []scanSig
	good   int64
	class  string
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTorn):
		return "torn"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "unclassified: " + err.Error()
}

// verdictOf runs scan (the reference, or the walker at some chunk size)
// and files what it delivered into v, reusing its storage.
func verdictOf(v *scanVerdict, scan func(fn func(rec record, off, frameLen int64) error) (int64, error)) {
	v.frames = v.frames[:0]
	good, err := scan(func(rec record, off, frameLen int64) error {
		v.frames = append(v.frames, scanSig{
			kind: rec.Kind, width: rec.Width, enc: rec.Enc, seq: rec.Seq, totalVals: rec.TotalVals,
			key: rec.Key, blockIdx: rec.BlockIdx, valCount: rec.ValCount, t1: rec.T1,
			dataLen: len(rec.Data), dataCRC: crc32.Checksum(rec.Data, castagnoli), off: off, size: frameLen,
		})
		return nil
	})
	v.good, v.class = good, errClass(err)
}

func (v *scanVerdict) equal(w *scanVerdict) bool {
	return v.good == w.good && v.class == w.class && slices.Equal(v.frames, w.frames)
}

// oracleImage is a segment image with every kind of frame in it: blocks of
// both widths and both encodings, tombstones, keys of maximal length, and
// in the middle a frame of maximal size — no chunk that starts at the
// header holds it, so the walk has to start one at it.
func oracleImage() []byte {
	const bigKey = "big"
	recs := append(seedRecords(),
		&record{Kind: recordBlock, Seq: 4, Key: bigKey, BlockIdx: 0, TotalVals: 2 * BlockValues, Width: 64,
			Enc: encLossless, ValCount: BlockValues, T1: 1.0 / 8,
			Data: bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, maxFramePayload)[:maxFramePayload-blockRecordOverhead(len(bigKey))]},
		&record{Kind: recordTombstone, Seq: 5, Key: "w"},
		&record{Kind: recordBlock, Seq: 6, Key: "wide", BlockIdx: 1, TotalVals: BlockValues + 7, Width: 64,
			Enc: encLossless, ValCount: 7, T1: 1.0 / 1024, Data: appendLossless(nil, vec.Of64(make([]float64, 7)))},
		&record{Kind: recordTombstone, Seq: 7, Key: strings.Repeat("t", maxKeyLen)},
		&record{Kind: recordBlock, Seq: 8, Key: "last", BlockIdx: 0, TotalVals: 3, Width: 32,
			Enc: encAVR, ValCount: 3, T1: 1.0 / 32, Data: []byte{9, 8, 7, 6, 5}},
	)
	return buildSegment(recs...)
}

// TestWalkMatchesReferenceScan holds the chunked walk over the one
// verifier to the reference scanner: on the image above cut at every byte
// offset, and with seeded single-bit flips, both must deliver the same
// records at the same offsets, stop at the same "good" offset and class
// the damage the same way — whatever the chunk size.
func TestWalkMatchesReferenceScan(t *testing.T) {
	img := oracleImage()
	var want, got scanVerdict
	check := func(what string, data []byte, chunks []int) {
		t.Helper()
		verdictOf(&want, func(fn func(record, int64, int64) error) (int64, error) {
			return scanSegment(bytes.NewReader(data), fn)
		})
		if strings.HasPrefix(want.class, "unclassified") {
			t.Fatalf("%s: reference: %s", what, want.class)
		}
		for _, c := range chunks {
			verdictOf(&got, func(fn func(record, int64, int64) error) (int64, error) {
				return walkImage(data, c, fn)
			})
			if !got.equal(&want) {
				t.Fatalf("%s, %d-byte chunks: walk delivered %d frames, good %d, %s; reference %d frames, good %d, %s",
					what, c, len(got.frames), got.good, got.class, len(want.frames), want.good, want.class)
			}
		}
	}
	check("whole image", img, []int{minChunk, maxRunBytes})
	if want.class != "ok" || len(want.frames) != 9 || want.good != int64(len(img)) {
		t.Fatalf("reference on the whole image: %d frames, good %d of %d, %s", len(want.frames), want.good, len(img), want.class)
	}
	// The walk's second chunk starts at the maximal frame. These sizes end
	// it as early as a chunk may end, on the boundary of the frame after
	// the tombstone behind the big one, inside that frame's length word,
	// inside its CRC and inside its payload; the last reads the image whole.
	big, next := want.frames[4], want.frames[6]
	if big.size != frameHeaderLen+maxFramePayload {
		t.Fatalf("frame 4 is %d bytes, not maximal", big.size)
	}
	span := int(next.off - big.off)
	chunks := []int{minChunk, span, span + 2, span + 6, span + 29, maxRunBytes}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for cut := 0; cut < len(img); cut += stride {
		check(fmt.Sprintf("cut at %d", cut), img[:cut], chunks)
	}
	rng := rand.New(rand.NewSource(21))
	mut := make([]byte, len(img))
	for i := 0; i < 600; i++ {
		copy(mut, img)
		bit := rng.Intn(8 * len(img))
		if i%2 == 0 { // half of them in the small frames ahead of the big one
			bit = rng.Intn(8 * int(big.off))
		}
		mut[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), mut, chunks)
		if want.class == "ok" {
			t.Fatalf("bit %d flipped: the reference did not notice", bit)
		}
	}
}
