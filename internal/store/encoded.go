package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"avr"
	"avr/internal/block"
	"avr/internal/obs"
	"avr/internal/trace"
	"avr/internal/vec"
)

// The encoded-put container: one vector, already cut into the store's
// blocks and encoded the way the store encodes them, in a form that can
// leave the process that encoded it. A router encodes a replicated put
// once and ships the same container to every owner; each owner checks
// it and commits the blocks as they are, so no replica re-derives them
// and the replicas' frames are byte-identical. DESIGN.md §5.7 has the
// byte-level table; this file is the format's one owner — Encoder
// writes it (its blocks for Store.PutVec too), Store.PutEncoded reads
// it, nothing else knows its layout.
//
//	header: "AVRP" | version (1) | width (32, 64) | float64 bits of t1 |
//	        uint64 total values
//	block:  encoding (0 = AVR codec stream, 1 = lossless BDI lines) |
//	        uint32 data length | data
//
// All integers are little-endian. There are ceil(total/BlockValues)
// blocks, in vector order, each holding BlockValues values but the last,
// and nothing follows the last block.

const (
	containerMagic     = "AVRP"
	containerVersion   = 1
	containerHeaderLen = len(containerMagic) + 1 + 1 + 8 + 8
	containerBlockHdr  = 1 + 4
)

// Errors of Store.PutEncoded; nothing is committed under either.
var (
	// ErrBadContainer reports a container that is not what an Encoder
	// writes: damaged structure, or a block its reader rejects.
	ErrBadContainer = errors.New("store: malformed encoded put")
	// ErrT1Mismatch reports a well-formed container encoded at a
	// threshold other than the store's.
	ErrT1Mismatch = errors.New("store: encoded put at another t1")
)

// Encoder is the store's block encoder on its own: it cuts a vector into
// BlockValues-value blocks and encodes each with the AVR codec at t1, or
// losslessly when the AVR stream misses the ratio floor. A Store runs
// one inside PutVec; a process without a store (the cluster router) runs
// one configured from the target stores' Stats and ships the result to
// Store.PutEncoded. Safe for concurrent use.
type Encoder struct {
	t1, ratioFloor float64
	// codecs pools *avr.Codec instances at t1 (a Codec is not
	// concurrency-safe; see the avr.Codec doc).
	codecs sync.Pool
}

// NewEncoder returns an encoder at the given threshold and ratio floor —
// a store's Config.T1 and Config.RatioFloor as its Stats report them.
func NewEncoder(t1, ratioFloor float64) *Encoder {
	e := &Encoder{t1: t1, ratioFloor: ratioFloor}
	e.codecs.New = func() any { return avr.NewCodec(t1) }
	return e
}

// T1 is the threshold the encoder runs at.
func (e *Encoder) T1() float64 { return e.t1 }

// RatioFloor is the AVR ratio below which a block is stored losslessly.
func (e *Encoder) RatioFloor() float64 { return e.ratioFloor }

func (e *Encoder) borrowCodec() *avr.Codec  { return e.codecs.Get().(*avr.Codec) }
func (e *Encoder) returnCodec(c *avr.Codec) { e.codecs.Put(c) }

// appendBlock appends one block's encoding to dst and reports which it
// is: the AVR stream, or — when skip says not to try, or the stream
// misses the ratio floor — the lossless fallback in its place.
func (e *Encoder) appendBlock(c *avr.Codec, dst []byte, vals vec.Vec, skip bool) ([]byte, uint8, error) {
	at := len(dst)
	if !skip {
		var err error
		if dst, err = vals.EncodeTo(c, dst); err != nil {
			return dst[:at], 0, err
		}
		rawLen := vals.Len() * vals.Width / 8
		if float64(rawLen)/float64(len(dst)-at) >= e.ratioFloor {
			return dst, encAVR, nil
		}
	}
	return appendLossless(dst[:at], vals), encLossless, nil
}

// checkVec rejects what no put accepts: a width the store does not hold,
// an empty vector.
func checkVec(vals vec.Vec) error {
	if vals.Width != 32 && vals.Width != 64 {
		return fmt.Errorf("store: value width %d, want 32 or 64", vals.Width)
	}
	if vals.Len() == 0 {
		return errors.New("store: empty vector")
	}
	return nil
}

// AppendPut appends the encoded-put container of vals to dst. With a
// buffer retained across calls (dst[:0]) it allocates nothing. The
// blocks are byte for byte what a Store at the same threshold and floor
// encodes for the same values (one that has not flagged a block as badly
// compressing, which skips the AVR attempt but not the outcome).
func (e *Encoder) AppendPut(dst []byte, vals vec.Vec) ([]byte, error) {
	if err := checkVec(vals); err != nil {
		return dst, err
	}
	dst = append(dst, containerMagic...)
	dst = append(dst, containerVersion, byte(vals.Width))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.t1))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(vals.Len()))
	return e.appendBlocks(dst, vals, nil)
}

// appendBlocks is the one block-encode loop, AppendPut's and PutVec's:
// it cuts vals into BlockValues-value blocks and appends each to dst as a
// container block (encoding, length, data). skip, when not nil, names the
// blocks known to miss the ratio floor — the store's badly-compressing-
// block table — which go straight to the lossless fallback.
func (e *Encoder) appendBlocks(dst []byte, vals vec.Vec, skip func(idx uint32) bool) ([]byte, error) {
	n := vals.Len()
	c := e.borrowCodec()
	defer e.returnCodec(c)
	for off := 0; off < n; off += BlockValues {
		skipped := skip != nil && skip(uint32(off/BlockValues))
		if skipped {
			obs.StoreCompressSkips.Add(1)
		}
		hdr := len(dst)
		dst = append(dst, 0, 0, 0, 0, 0)
		var enc uint8
		var err error
		if dst, enc, err = e.appendBlock(c, dst, vals.Slice(off, min(off+BlockValues, n)), skipped); err != nil {
			return dst[:hdr], err
		}
		dst[hdr] = enc
		binary.LittleEndian.PutUint32(dst[hdr+1:], uint32(len(dst)-hdr-containerBlockHdr))
	}
	obs.StoreEncodes.Add(1)
	return dst, nil
}

// blocksOf points blocks at the container blocks appendBlocks wrote into
// buf for total values. Nothing is checked: the store's own encoder wrote
// them.
func blocksOf(blocks []encodedBlock, buf []byte, total int) {
	for i := range blocks {
		end := containerBlockHdr + int(binary.LittleEndian.Uint32(buf[1:]))
		blocks[i] = encodedBlock{enc: buf[0], valCount: uint32(min(BlockValues, total-i*BlockValues)), data: buf[containerBlockHdr:end]}
		buf = buf[end:]
	}
}

// PutEncoded stores the vector an Encoder put into container under key,
// replacing any previous value: PutVec without the encode. The blocks
// are committed as they arrive, so everything a reader will rely on is
// checked first — the container's structure, width and value counts,
// every AVR block through the stream cursor every reader uses (with the
// count its frame will claim), every lossless block through the lossless
// decoder, and that each block fits a frame. What cannot be checked is
// the error bound: the store never saw the original values, so
// |x'-x| <= t1|x| is the encoder's promise, and the store holds the
// container to claiming its own t1 — ErrT1Mismatch otherwise, and
// ErrBadContainer for anything malformed; nothing is committed under
// either. The check is charged to StageDecode on sp.
func (s *Store) PutEncoded(key string, container []byte, sp *trace.Span) (PutResult, error) {
	if err := checkKey(key); err != nil {
		return PutResult{}, err
	}
	t0 := time.Now()
	ps := s.puts.Get().(*putScratch)
	defer s.puts.Put(ps)
	vt := sp.Begin()
	width, total, err := s.openContainer(container, len(key), ps)
	sp.End(trace.StageDecode, vt)
	if err != nil {
		return PutResult{}, err
	}
	res, err := s.commitPut(key, width, total, int(total)*int(width/8), ps, t0, sp)
	clear(ps.blocks) // they alias the caller's container
	return res, err
}

// openContainer checks container and fills ps.blocks from it (the
// blocks' data aliasing container).
func (s *Store) openContainer(container []byte, keyLen int, ps *putScratch) (width uint8, total uint64, err error) {
	bad := func(format string, args ...any) (uint8, uint64, error) {
		return 0, 0, fmt.Errorf("%w: %s", ErrBadContainer, fmt.Sprintf(format, args...))
	}
	if len(container) < containerHeaderLen || string(container[:len(containerMagic)]) != containerMagic {
		return bad("no %s header", containerMagic)
	}
	if v := container[4]; v != containerVersion {
		return bad("version %d", v)
	}
	if width = container[5]; width != 32 && width != 64 {
		return bad("value width %d", width)
	}
	t1 := math.Float64frombits(binary.LittleEndian.Uint64(container[6:]))
	total = binary.LittleEndian.Uint64(container[14:])
	rest := container[containerHeaderLen:]
	// Every block costs its header at least, which bounds the block count
	// — and the scratch sized for it — by the bytes actually sent.
	if total == 0 || total > uint64(len(rest)/containerBlockHdr)*BlockValues {
		return bad("%d values in %d bytes of blocks", total, len(rest))
	}
	if t1 != s.cfg.T1 {
		return 0, 0, fmt.Errorf("%w: container says %g, store runs at %g", ErrT1Mismatch, t1, s.cfg.T1)
	}
	nb := int((total + BlockValues - 1) / BlockValues)
	ps.ensure(nb)
	for i := 0; i < nb; i++ {
		if len(rest) < containerBlockHdr {
			return bad("block %d: truncated", i)
		}
		enc, n := rest[0], int(binary.LittleEndian.Uint32(rest[1:]))
		rest = rest[containerBlockHdr:]
		if n > len(rest) {
			return bad("block %d: %d bytes of data, %d left", i, n, len(rest))
		}
		if blockRecordOverhead(keyLen)+n > maxFramePayload {
			return bad("block %d: %d bytes of data do not fit a frame", i, n)
		}
		data := rest[:n:n]
		rest = rest[n:]
		valCount := int(min(BlockValues, total-uint64(i)*BlockValues))
		switch enc {
		case encAVR:
			err = checkStream(data, int(width), valCount)
		case encLossless:
			ps.vals, err = decodeLosslessTo(ps.vals.Reset(int(width)), data, valCount)
		default:
			return bad("block %d: encoding %d", i, enc)
		}
		if err != nil {
			return bad("block %d: %v", i, err)
		}
		ps.blocks[i] = encodedBlock{enc: enc, valCount: uint32(valCount), data: data}
	}
	if len(rest) != 0 {
		return bad("%d bytes after the last block", len(rest))
	}
	return width, total, nil
}

// checkStream walks an AVR codec stream of the given width with the
// cursor every reader of a stored block goes through — the get path's
// decode, the cache fill, the query walker — demanding valCount values:
// what it yields to the end, none of them will reject.
func checkStream(data []byte, width, valCount int) error {
	cur, err := block.Open(streamLayout(width), data, valCount)
	var rec block.Record
	for err == nil && cur.More() {
		err = cur.Next(&rec)
	}
	return err
}
