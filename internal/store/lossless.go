package store

import (
	"fmt"

	"avr/internal/lossless"
	"avr/internal/vec"
)

// Lossless fallback encoding for blocks whose AVR ratio falls below the
// store's floor: the raw little-endian value bytes are cut into 64-byte
// cachelines (the trailing partial line zero-padded) and each line is
// BDI-encoded (internal/lossless). BDI round-trips bit-exactly, so
// fallback blocks reconstruct their values exactly — the store's analog
// of the paper's "store uncompressed when approximation does not pay",
// with the lossless link-layer compressor still squeezing what it can.
//
// Frame: concatenated BDI line encodings. Each line encoding is
// self-delimiting — its first byte is the BDI form tag, which fixes the
// payload length (lossless.EncodedLen) — so no per-line length prefix is
// needed. Decoding
// validates the tag and the remaining length before touching
// lossless.DecodeInto, which assumes well-formed input.

// losslessChunk is how many BDI lines the two functions below stage as
// raw bytes between Vec conversions: converting line by line costs a
// Vec call per 64 bytes, which measured +40% on a lossless block's read.
const losslessChunk = 64 * lossless.LineBytes

// appendLossless appends the BDI line encodings of vals' raw
// little-endian bytes to dst without intermediate allocation (16 fp32 or
// 8 fp64 values per line, the trailing partial line zero-padded).
func appendLossless(dst []byte, vals vec.Vec) []byte {
	var raw [losslessChunk]byte
	perChunk := losslessChunk * 8 / vals.Width
	for off, n := 0, vals.Len(); off < n; off += perChunk {
		chunk := vals.Slice(off, min(off+perChunk, n)).AppendLE(raw[:0])
		for len(chunk)%lossless.LineBytes != 0 {
			chunk = append(chunk, 0)
		}
		for ; len(chunk) > 0; chunk = chunk[lossless.LineBytes:] {
			dst = lossless.AppendEncode(dst, chunk[:lossless.LineBytes])
		}
	}
	return dst
}

// decodeLosslessTo appends valCount values of dst's width decoded from
// BDI lines to dst without allocating, validating every tag and length
// so corrupt payloads surface as errors rather than panics inside the
// line decoder. On error dst is returned as passed.
func decodeLosslessTo(dst vec.Vec, data []byte, valCount int) (vec.Vec, error) {
	out := dst
	rawLen := valCount * dst.Width / 8
	var raw [losslessChunk]byte
	for produced := 0; produced < rawLen; {
		fill := 0
		for ; fill < len(raw) && produced+fill < rawLen; fill += lossless.LineBytes {
			if len(data) == 0 {
				return dst, fmt.Errorf("%w: lossless payload exhausted at %d/%d bytes",
					ErrCorrupt, produced+fill, rawLen)
			}
			n := lossless.EncodedLen(data[0])
			if n == 0 || n > len(data) {
				return dst, fmt.Errorf("%w: bad lossless line tag %d", ErrCorrupt, data[0])
			}
			lossless.DecodeInto(raw[fill:fill+lossless.LineBytes], data[:n])
			data = data[n:]
		}
		out = out.FromLE(raw[:min(fill, rawLen-produced)])
		produced += fill
	}
	if len(data) != 0 {
		return dst, fmt.Errorf("%w: %d trailing lossless bytes", ErrCorrupt, len(data))
	}
	return out, nil
}
