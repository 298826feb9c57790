package store

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"avr/internal/vec"
)

// buildSegment assembles an in-memory segment image from records, for
// fuzz seeds.
func buildSegment(recs ...*record) []byte {
	buf := segmentHeader()
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	return buf
}

func seedRecords() []*record {
	return []*record{
		{
			Kind: recordBlock, Seq: 1, Key: "temps", BlockIdx: 0,
			TotalVals: 6000, Width: 32, Enc: encAVR, ValCount: BlockValues,
			T1: 1.0 / 32, Data: []byte{0x01, 0x02, 0x03, 0x04},
		},
		{
			Kind: recordBlock, Seq: 1, Key: "temps", BlockIdx: 1,
			TotalVals: 6000, Width: 32, Enc: encLossless, ValCount: 6000 - BlockValues,
			T1: 1.0 / 32, Data: appendLossless(nil, vec.Of32(make([]float32, 64))),
		},
		{Kind: recordTombstone, Seq: 2, Key: "temps"},
		{
			Kind: recordBlock, Seq: 3, Key: strings.Repeat("k", maxKeyLen), BlockIdx: 0,
			TotalVals: 1, Width: 64, Enc: encAVR, ValCount: 1,
			T1: 0.25, Data: bytes.Repeat([]byte{0xff}, 64),
		},
	}
}

// FuzzSegmentRead feeds arbitrary bytes to the segment scan recovery and
// compaction run (walkFrames over the one verifier, at the smallest chunk
// a fetch may return and a little above it). The contract under test: the
// walk returns an error for any damaged input — it never panics, never
// hands out more than it read, every error is classified as either a torn
// tail or corruption — and it delivers, stops and classes exactly as the
// reference scanner (oracle_test.go) does.
func FuzzSegmentRead(f *testing.F) {
	recs := seedRecords()
	valid := buildSegment(recs...)
	f.Add(valid)
	f.Add(buildSegment())         // header only
	f.Add(valid[:len(valid)-3])   // torn tail
	f.Add(valid[:segHeaderLen+5]) // torn frame header
	f.Add([]byte(segMagic))       // short header
	f.Add([]byte{})               // empty file
	f.Add(bytes.Repeat(valid, 2)) // second header parsed as frame garbage
	flip := append([]byte(nil), valid...)
	flip[segHeaderLen+frameHeaderLen+3] ^= 0x40 // payload bit flip → CRC mismatch
	f.Add(flip)
	badLen := append([]byte(nil), valid...)
	badLen[segHeaderLen] = 0xff // huge length word
	badLen[segHeaderLen+1] = 0xff
	badLen[segHeaderLen+2] = 0xff
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got scanVerdict
		verdictOf(&want, func(fn func(record, int64, int64) error) (int64, error) {
			return scanSegment(bytes.NewReader(data), fn)
		})
		verdictOf(&got, func(fn func(record, int64, int64) error) (int64, error) {
			return walkImage(data, minChunk+len(data)%61, fn)
		})
		var total int
		for _, fr := range got.frames {
			// Anything the scan hands out must have passed validation.
			if fr.kind != recordBlock && fr.kind != recordTombstone {
				t.Fatalf("scan delivered invalid kind %d", fr.kind)
			}
			if len(fr.key) == 0 || len(fr.key) > maxKeyLen {
				t.Fatalf("scan delivered key length %d", len(fr.key))
			}
			if fr.kind == recordBlock {
				if fr.width != 32 && fr.width != 64 {
					t.Fatalf("scan delivered width %d", fr.width)
				}
				if fr.valCount == 0 || fr.valCount > BlockValues {
					t.Fatalf("scan delivered value count %d", fr.valCount)
				}
			}
			if fr.size > frameHeaderLen+maxFramePayload {
				t.Fatalf("frame length %d exceeds cap", fr.size)
			}
			total += fr.dataLen
		}
		if strings.HasPrefix(got.class, "unclassified") {
			t.Fatalf("scan error %s", got.class)
		}
		if got.good < 0 || got.good > int64(len(data)) {
			t.Fatalf("scan offset %d outside 0..%d", got.good, len(data))
		}
		// Delivered payload bytes can never exceed the input: the length
		// word is validated before anything is sized by it, so corrupt
		// input cannot make the scan hand out more than it read.
		if total > len(data) {
			t.Fatalf("scan delivered %d payload bytes from %d input bytes", total, len(data))
		}
		if !got.equal(&want) {
			t.Fatalf("walk delivered %d frames, good %d, %s; reference %d frames, good %d, %s",
				len(got.frames), got.good, got.class, len(want.frames), want.good, want.class)
		}
	})
}

// TestScanSegmentRejectsTamperedFrames locks in the error taxonomy the
// fuzz target relies on with deterministic cases.
func TestScanSegmentRejectsTamperedFrames(t *testing.T) {
	valid := buildSegment(seedRecords()...)

	scan := func(data []byte) (frames int, err error) {
		_, err = walkImage(data, maxRunBytes, func(record, int64, int64) error {
			frames++
			return nil
		})
		return frames, err
	}

	if n, err := scan(valid); err != nil || n != 4 {
		t.Fatalf("valid segment: %d frames, err %v", n, err)
	}
	// Every truncation of a valid image is at worst a torn tail.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := scan(valid[:cut]); err != nil && !errors.Is(err, ErrTorn) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	// A bit flip in any frame byte is caught by the CRC (torn) — or, in
	// the length word, by the payload cap / short read.
	for i := segHeaderLen; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x10
		if _, err := scan(mut); err == nil {
			// A flip in a later frame's length word can only be detected
			// once the scanner gets there; it must never pass silently.
			t.Fatalf("bit flip at %d not detected", i)
		} else if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: unclassified error %v", i, err)
		}
	}
	// A flipped header byte is corruption, not a torn tail.
	mut := append([]byte(nil), valid...)
	mut[0] ^= 0x01
	if _, err := scan(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
}
