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

// FuzzSegmentRead feeds arbitrary bytes to the segment scanner. The
// contract under test: scanSegment returns an error for any damaged
// input — it never panics, never over-allocates from a corrupt length
// word, and every error is classified as either a torn tail or
// corruption.
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
		var total int
		off, err := scanSegment(bytes.NewReader(data), func(rec record, off, frameLen int64) error {
			// Anything the scanner hands out must have passed validation.
			if rec.Kind != recordBlock && rec.Kind != recordTombstone {
				t.Fatalf("scanner delivered invalid kind %d", rec.Kind)
			}
			if len(rec.Key) == 0 || len(rec.Key) > maxKeyLen {
				t.Fatalf("scanner delivered key length %d", len(rec.Key))
			}
			if rec.Kind == recordBlock {
				if rec.Width != 32 && rec.Width != 64 {
					t.Fatalf("scanner delivered width %d", rec.Width)
				}
				if rec.ValCount == 0 || rec.ValCount > BlockValues {
					t.Fatalf("scanner delivered value count %d", rec.ValCount)
				}
			}
			if frameLen > frameHeaderLen+maxFramePayload {
				t.Fatalf("frame length %d exceeds cap", frameLen)
			}
			total += len(rec.Data)
			return nil
		})
		if err != nil && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified scan error: %v", err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("scan offset %d outside 0..%d", off, len(data))
		}
		// Delivered payload bytes can never exceed the input: the length
		// word is validated before allocation, so corrupt input cannot
		// make the scanner hand out more than it read.
		if total > len(data) {
			t.Fatalf("scanner delivered %d payload bytes from %d input bytes", total, len(data))
		}
	})
}

// TestScanSegmentRejectsTamperedFrames locks in the error taxonomy the
// fuzz target relies on with deterministic cases.
func TestScanSegmentRejectsTamperedFrames(t *testing.T) {
	valid := buildSegment(seedRecords()...)

	scan := func(data []byte) (frames int, err error) {
		_, err = scanSegment(bytes.NewReader(data), func(record, int64, int64) error {
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
