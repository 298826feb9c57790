package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"avr"
	"avr/internal/block"
	"avr/internal/obs"
	"avr/internal/trace"
	"avr/internal/vec"
)

// The container: one vector cut into the store's blocks and encoded the
// way the store encodes them, in a form that can leave the process that
// holds it — in both directions. On a write, a router encodes a
// replicated put once and ships the same container to every owner; each
// owner checks it and commits the blocks as they are, so no replica
// re-derives them and the replicas' frames are byte-identical. On a read,
// a shard hands a key's stored blocks out as they are (GetEncoded) and
// the router rebuilds the values (DecodeContainer), so the hop carries
// what the disk holds instead of the floats. DESIGN.md §5.7 has the
// byte-level table; this file is the format's one owner — Encoder and
// GetEncoded write it, readContainer reads it for PutEncoded and
// DecodeContainer, nothing else knows its layout.
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

// Errors of Store.PutEncoded, which commits nothing under either, and —
// the first — of DecodeContainer.
var (
	// ErrBadContainer reports a container that is not what an Encoder or
	// GetEncoded writes: damaged structure, or a block its reader rejects.
	ErrBadContainer = errors.New("store: malformed encoded put")
	// ErrT1Mismatch reports a well-formed container encoded at a
	// threshold other than the store's.
	ErrT1Mismatch = errors.New("store: encoded put at another t1")
)

// Encoder is the store's block encoder on its own: it cuts a vector into
// BlockValues-value blocks and encodes each with the AVR codec at t1, or
// losslessly when the AVR stream misses ratioFloor. A Store runs one
// inside PutVec; a process without a store (the cluster router) runs one
// at the t1 the target stores' Stats report and ships the result to
// Store.PutEncoded. Safe for concurrent use.
type Encoder struct {
	t1 float64
	// codecs pools *avr.Codec instances at t1 (a Codec is not
	// concurrency-safe; see the avr.Codec doc).
	codecs sync.Pool
}

// NewEncoder returns an encoder at the given threshold: a store's
// Config.T1 as its Stats report it.
func NewEncoder(t1 float64) *Encoder {
	e := &Encoder{t1: t1}
	e.codecs.New = func() any { return avr.NewCodec(t1) }
	return e
}

// T1 is the threshold the encoder runs at.
func (e *Encoder) T1() float64 { return e.t1 }

func (e *Encoder) borrowCodec() *avr.Codec  { return e.codecs.Get().(*avr.Codec) }
func (e *Encoder) returnCodec(c *avr.Codec) { e.codecs.Put(c) }

// ratioFloor is the AVR compression ratio (raw bytes / encoded bytes)
// below which a block is stored through the lossless fallback and
// flagged.
const ratioFloor = 1.2

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
		if float64(rawLen)/float64(len(dst)-at) >= ratioFloor {
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
	dst = appendContainerHeader(dst, containerHead{uint8(vals.Width), e.t1, uint64(vals.Len())})
	return e.appendBlocks(dst, vals, nil)
}

// containerHead is what a container's header says.
type containerHead struct {
	width uint8
	t1    float64
	total uint64
}

// blocks is the container's block count.
func (h containerHead) blocks() int { return int((h.total + BlockValues - 1) / BlockValues) }

func appendContainerHeader(dst []byte, h containerHead) []byte {
	dst = append(dst, containerMagic...)
	dst = append(dst, containerVersion, h.width)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.t1))
	return binary.LittleEndian.AppendUint64(dst, h.total)
}

// appendContainerBlock appends one block: its encoding, length and data.
func appendContainerBlock(dst []byte, enc uint8, data []byte) []byte {
	dst = append(dst, enc)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

// appendBlocks is the one block-encode loop, AppendPut's and PutVec's:
// it cuts vals into BlockValues-value blocks and appends each to dst as a
// container block (encoding, length, data). skip, when not nil, names the
// blocks known to miss the ratio floor — the store's flagged blocks —
// which go straight to the lossless fallback.
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
// decoder (openContainer), and that each block fits a frame (fitFrames).
// What cannot be checked is the error bound: the store never saw the
// original values, so |x'-x| <= t1|x| is the encoder's promise, and the
// store holds the container to claiming its own t1 — ErrT1Mismatch
// otherwise, and ErrBadContainer for anything malformed; nothing is
// committed under either. The check is charged to StageDecode on sp.
func (s *Store) PutEncoded(key string, container []byte, sp *trace.Span) (PutResult, error) {
	if err := checkKey(key); err != nil {
		return PutResult{}, err
	}
	ps := s.puts.Get().(*putScratch)
	defer s.puts.Put(ps)
	vt := sp.Begin()
	h, err := openContainer(container, s.cfg.T1, ps)
	if err == nil {
		err = fitFrames(len(key), ps.blocks)
	}
	sp.End(trace.StageDecode, vt)
	if err != nil {
		return PutResult{}, err
	}
	res, err := s.commitPut(key, h.width, h.total, ps, sp)
	clear(ps.blocks) // they alias the caller's container
	return res, err
}

// fitFrames holds a checked container's blocks to what only a store asks
// of them: each inside a frame under key (a longer frame would read as a
// torn tail at the next open).
func fitFrames(keyLen int, blocks []encodedBlock) error {
	for i := range blocks {
		if n := len(blocks[i].data); blockRecordOverhead(keyLen)+n > maxFramePayload {
			return badContainer("block %d: %d bytes of data do not fit a frame", i, n)
		}
	}
	return nil
}

// openContainer checks container for a store at t1 and fills ps.blocks
// from it (the blocks' data aliasing container): the layout through
// readContainer, the header's t1 equal to t1 bit for bit
// (ErrT1Mismatch), then each AVR block through checkStream, each lossless
// one through the lossless decoder.
func openContainer(container []byte, t1 float64, ps *putScratch) (containerHead, error) {
	return readContainer(container, func(h containerHead) error {
		if math.Float64bits(h.t1) != math.Float64bits(t1) {
			return fmt.Errorf("%w: container says %g, store runs at %g", ErrT1Mismatch, h.t1, t1)
		}
		ps.ensure(h.blocks())
		return nil
	}, func(h containerHead, i int, b encodedBlock) error {
		var err error
		if b.enc == encAVR {
			err = checkStream(b.data, int(h.width), int(b.valCount))
		} else {
			ps.vals, err = decodeLosslessTo(ps.vals.Reset(int(h.width)), b.data, int(b.valCount))
		}
		ps.blocks[i] = b
		return err
	})
}

// badContainer is an ErrBadContainer saying what is wrong.
func badContainer(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadContainer, fmt.Sprintf(format, args...))
}

// readContainer is the one reader of the layout, PutEncoded's and
// DecodeContainer's. It checks the header — magic, version, width, and a
// total the bytes present could hold at one block header a block, checked
// before anything is sized from it — and hands it to head; then each
// block's framing — a known encoding, a length inside the container —
// handing block each one in vector order with the value count its
// position gives it; and last that nothing follows the last block. What
// a block's data holds is block's to check, on its way to its own use of
// it. Every error is ErrBadContainer, block's included; head's comes back
// as it is.
func readContainer(container []byte, head func(h containerHead) error, block func(h containerHead, i int, b encodedBlock) error) (containerHead, error) {
	var h containerHead
	if len(container) < containerHeaderLen || string(container[:len(containerMagic)]) != containerMagic {
		return h, badContainer("no %s header", containerMagic)
	}
	if v := container[4]; v != containerVersion {
		return h, badContainer("version %d", v)
	}
	if h.width = container[5]; h.width != 32 && h.width != 64 {
		return h, badContainer("value width %d", h.width)
	}
	h.t1 = math.Float64frombits(binary.LittleEndian.Uint64(container[6:]))
	h.total = binary.LittleEndian.Uint64(container[14:])
	rest := container[containerHeaderLen:]
	// Every block costs its header at least, which bounds the block count
	// — and any scratch sized for it — by the bytes actually sent.
	if h.total == 0 || h.total > uint64(len(rest)/containerBlockHdr)*BlockValues {
		return h, badContainer("%d values in %d bytes of blocks", h.total, len(rest))
	}
	if err := head(h); err != nil {
		return h, err
	}
	for i := 0; i < h.blocks(); i++ {
		if len(rest) < containerBlockHdr {
			return h, badContainer("block %d: truncated", i)
		}
		enc, n := rest[0], int(binary.LittleEndian.Uint32(rest[1:]))
		rest = rest[containerBlockHdr:]
		if n > len(rest) {
			return h, badContainer("block %d: %d bytes of data, %d left", i, n, len(rest))
		}
		if enc != encAVR && enc != encLossless {
			return h, badContainer("block %d: encoding %d", i, enc)
		}
		b := encodedBlock{enc: enc, valCount: uint32(min(BlockValues, h.total-uint64(i)*BlockValues)), data: rest[:n:n]}
		rest = rest[n:]
		if err := block(h, i, b); err != nil {
			return h, badContainer("block %d: %v", i, err)
		}
	}
	if len(rest) != 0 {
		return h, badContainer("%d bytes after the last block", len(rest))
	}
	return h, nil
}

// decodeCodecs pools DecodeContainer's codecs. Decoding never consults
// the thresholds, so one default-threshold codec serves a block written
// at any t1.
var decodeCodecs = sync.Pool{New: func() any { return avr.NewCodec(0) }}

// DecodeContainer rebuilds the values of container — written by
// GetEncoded or an Encoder — into dst's storage, replacing its contents,
// and the result's Width is the container's. Each block goes through the
// decode a shard's own read runs, so its stream and its value count are
// checked as they are there. With a retained dst it allocates nothing. A
// malformed container is ErrBadContainer, with dst returned as passed.
func DecodeContainer(dst vec.Vec, container []byte) (vec.Vec, error) {
	c := decodeCodecs.Get().(*avr.Codec)
	defer decodeCodecs.Put(c)
	var out vec.Vec
	_, err := readContainer(container, func(h containerHead) error {
		out = dst.Reset(int(h.width))
		return nil
	}, func(h containerHead, i int, b encodedBlock) error {
		return decodeFrame(&out, c, blockRef{enc: b.enc, valCount: b.valCount}, b.data)
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// GetEncoded appends key's container to dst: the key's blocks as they are
// stored, each frame read, CRC-verified and kind-checked as GetVec's disk
// path does it and appended as a container block with no decode. It
// reads the disk (the page cache): the line cache is neither consulted
// nor filled. The header's t1 is the threshold the blocks were encoded
// at: one for every block of a key, since a put writes every block at the
// store's t1 and compaction moves frames verbatim — but for a lossless
// block the compactor re-framed after a reopen at another t1, whose frame
// carries that one; the header then takes the largest, the bound every
// value of the key is within. A vector whose tail was lost to a crash
// appends the container of its recovered prefix and returns ErrIncomplete
// beside it; on any other error dst is returned as passed. It also
// reports the vector's width and how many values the container holds.
// Stages onto sp: StageLock, then StageSegRead.
func (s *Store) GetEncoded(dst []byte, key string, sp *trace.Span) (out []byte, width, values int, err error) {
	lt := sp.Begin()
	s.mu.RLock()
	sp.End(trace.StageLock, lt)
	defer s.mu.RUnlock()
	if s.closed {
		return dst, 0, 0, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return dst, 0, 0, ErrNotFound
	}
	h := containerHead{width: e.width}
	for _, ref := range e.refs {
		if ref.seg == 0 {
			break
		}
		h.t1 = max(h.t1, ref.t1)
		h.total += uint64(ref.valCount)
	}
	out = appendContainerHeader(dst, h)
	_, complete, err := s.readLocked(nil, &out, false, nil, key, e, sp)
	if err != nil {
		return dst, 0, 0, err
	}
	obs.StoreGets.Add(1)
	if !complete {
		err = ErrIncomplete
	}
	return out, int(e.width), int(h.total), err
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
