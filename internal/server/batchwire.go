package server

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"avr/internal/simd"
)

// Single-pass wire codec for the two batch messages that carry value
// payloads, BatchPutRequest and BatchGetResult. The format is the JSON
// those types describe and nothing else; what changes is how it is
// read and written. encoding/json copies every payload twice (unquote,
// then base64-decode into a fresh []byte) before anyone can use it. So
// the scanner walks the body once and hands out, per item, the key and
// scalar fields and the payload as still-encoded base64 text, aliasing
// the body, nothing copied. Whoever needs a payload's bytes decodes the
// text straight into its own scratch — avrd to store them, the router to
// encode them or to rebuild a shard's container — and that decode is
// also the only check a payload gets: the scanner reads the text no
// further than to find its end, so a message is what encoding/json
// accepts when the scan and the decode of every payload both are. The
// emitter is the inverse: it base64-encodes straight into the buffer.
// Decode and encode are internal/simd's Base64Decode and Base64Encode —
// encoding/base64's answers, from an AVX-512 kernel where the machine
// has one.
//
// The scanner accepts what json.Unmarshal into the message type accepts
// and yields the same field values (any field order, whitespace, unknown
// fields, string escapes, case-folded field names, duplicate fields
// with the last one winning, null) — the payloads' decodes included.
// FuzzBatchWire holds it to that, with two documented exceptions where
// encoding/json is more lenient than the schema and the scanner rejects:
//
//   - a second non-empty "items"/"results" array in one message
//     (encoding/json merges it element-wise into the first — its slice
//     reuse quirk, not a contract anyone could rely on);
//   - a "data" value that is a JSON array of byte numbers rather than a
//     base64 string.

// The frame around the elements, for whoever assembles a message from
// emitted elements: open, elements joined by commas, close — and the
// close of an mget that asks for containers.
const (
	PutRequestOpen         = `{"items":[`
	GetRequestOpen         = `{"keys":[`
	GetResultOpen          = `{"results":[`
	BatchClose             = `]}`
	EncodedGetRequestClose = `],"encoded":true}`
)

// WireItem is one element of a scanned batch: a BatchPutItem or a
// BatchGetItemResult (a put item leaves the result-only fields zero).
// Every slice aliases the scanned body or the scanner's scratch and is
// valid until either is reused.
type WireItem struct {
	Key   []byte // unescaped
	Error []byte // unescaped
	// Data is the payload as standard base64 text, still encoded; empty
	// when the field is absent, null or "". It is whatever the string
	// held, until AppendData says.
	Data  []byte
	Width int
	// Encoded marks the payload as a container (store.Encoder,
	// store.GetEncoded), not raw values.
	Encoded  bool
	OK       bool
	NotFound bool
	Complete bool
}

// errNotBase64 reports a payload AppendData could not decode.
var errNotBase64 = errors.New("data is not valid base64")

// AppendData decodes the payload onto dst — one pass over the text, which
// is also its check: text that is not whole quanta of the standard
// alphabet, the last one padded with at most two '=', is errNotBase64, as
// encoding/json would have refused the message.
func (it *WireItem) AppendData(dst []byte) ([]byte, error) {
	text := it.Data
	if len(text)%4 != 0 {
		return dst, errNotBase64
	}
	want := len(text) / 4 * 3
	for pad := 0; pad < 2 && pad < len(text) && text[len(text)-1-pad] == '='; pad++ {
		want--
	}
	at := len(dst)
	dst = growBytes(dst, len(text)/4*3)
	// The decoder drops CR and LF, which JSON does not allow in a string
	// unescaped; a text holding any decodes short of want.
	if n, ok := simd.Base64Decode(dst[at:], text); !ok || n != want {
		return dst[:at], errNotBase64
	}
	return dst[:at+want], nil
}

// growBytes extends b by n bytes, reallocating — to at least double —
// only when it must.
func growBytes(b []byte, n int) []byte {
	if len(b)+n > cap(b) {
		b = slices.Grow(b, max(n, cap(b)))
	}
	return b[:len(b)+n]
}

// wireFields says which element fields a message type knows; the rest
// are skipped like any unknown field.
type wireFields uint8

const (
	fieldKey wireFields = 1 << iota
	fieldWidth
	fieldData
	fieldOK
	fieldError
	fieldNotFound
	fieldComplete
	fieldEncoded

	putItemFields   = fieldKey | fieldWidth | fieldData | fieldEncoded
	getResultFields = fieldKey | fieldWidth | fieldData | fieldOK | fieldError | fieldNotFound | fieldComplete | fieldEncoded
)

// fieldNames pairs each field with its JSON name as encoding/json folds
// it for the case-insensitive match.
var fieldNames = [...]struct {
	f      wireFields
	folded string
}{
	{fieldKey, "KEY"}, {fieldWidth, "WIDTH"}, {fieldData, "DATA"}, {fieldOK, "OK"},
	{fieldError, "ERROR"}, {fieldNotFound, "NOT_FOUND"}, {fieldComplete, "COMPLETE"},
	{fieldEncoded, "ENCODED"},
}

var (
	errDuplicateArray = errors.New("batch body repeats its element array")
	errDataNotString  = errors.New("data is not a base64 string")
)

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// BatchScanner scans one batch body at a time. It is pooled: get one
// with NewBatchScanner, Release it when Items is no longer needed.
type BatchScanner struct {
	// Items is the last scanned body's elements, in body order.
	Items []WireItem

	body    []byte
	pos     int
	depth   int
	scratch []byte // unescaped strings that could not alias the body
}

var scannerPool = sync.Pool{New: func() any { return new(BatchScanner) }}

// NewBatchScanner returns a scanner from the pool.
func NewBatchScanner() *BatchScanner { return scannerPool.Get().(*BatchScanner) }

// Release returns the scanner to the pool; Items is dead after it.
func (p *BatchScanner) Release() {
	clear(p.Items) // do not pin the body
	p.Items, p.body = p.Items[:0], nil
	scannerPool.Put(p)
}

// ScanPutRequest scans a BatchPutRequest body into p.Items.
func (p *BatchScanner) ScanPutRequest(body []byte) error {
	return p.scan(body, "ITEMS", putItemFields)
}

// ScanGetResult scans a BatchGetResult body into p.Items.
func (p *BatchScanner) ScanGetResult(body []byte) error {
	return p.scan(body, "RESULTS", getResultFields)
}

func (p *BatchScanner) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// scan walks the top-level object; array is the folded name of the
// field holding the elements.
func (p *BatchScanner) scan(body []byte, array string, fields wireFields) error {
	p.Items, p.body, p.pos, p.depth, p.scratch = p.Items[:0], body, 0, 0, p.scratch[:0]
	p.skipSpace()
	switch p.peek() {
	case 'n': // a null message is an empty one
		if err := p.literal("null"); err != nil {
			return err
		}
	case '{':
		err := p.object(func(name []byte) error {
			if !foldedEqual(name, array) {
				return p.skipValue()
			}
			return p.elements(fields)
		})
		if err != nil {
			return err
		}
	default:
		return p.errf("batch body is not a JSON object")
	}
	p.skipSpace()
	if p.pos != len(p.body) {
		return p.errf("data after the batch body")
	}
	return nil
}

// elements scans the element array (or a null, which empties it).
func (p *BatchScanner) elements(fields wireFields) error {
	switch p.peek() {
	case 'n':
		p.Items = p.Items[:0]
		return p.literal("null")
	case '[':
	default:
		return p.errf("batch elements are not an array")
	}
	if len(p.Items) > 0 {
		return errDuplicateArray
	}
	return p.array(func() error {
		var it WireItem
		switch p.peek() {
		case 'n': // a null element is a zero one
			if err := p.literal("null"); err != nil {
				return err
			}
		case '{':
			if err := p.object(func(name []byte) error { return p.field(&it, name, fields) }); err != nil {
				return err
			}
		default:
			return p.errf("batch element is not an object")
		}
		p.Items = append(p.Items, it)
		return nil
	})
}

// field scans one field's value into it.
func (p *BatchScanner) field(it *WireItem, name []byte, fields wireFields) error {
	var f wireFields
	for _, fn := range fieldNames {
		if fields&fn.f != 0 && foldedEqual(name, fn.folded) {
			f = fn.f
			break
		}
	}
	if f == 0 {
		return p.skipValue()
	}
	// A payload is left for its decode to check, and one about to be
	// replaced by a duplicate field never will be: it is decoded here, into
	// the scratch's spare room, and dropped.
	if f == fieldData {
		if _, err := it.AppendData(p.scratch[len(p.scratch):]); err != nil {
			return p.errf("%v", err)
		}
	}
	// null leaves a scalar as it is and empties a payload.
	if p.peek() == 'n' {
		if f == fieldData {
			it.Data = nil
		}
		return p.literal("null")
	}
	var err error
	switch f {
	case fieldKey:
		it.Key, err = p.stringValue()
	case fieldError:
		it.Error, err = p.stringValue()
	case fieldData:
		it.Data, err = p.dataValue()
	case fieldEncoded:
		it.Encoded, err = p.boolValue()
	case fieldWidth:
		it.Width, err = p.intValue()
	case fieldOK:
		it.OK, err = p.boolValue()
	case fieldNotFound:
		it.NotFound, err = p.boolValue()
	case fieldComplete:
		it.Complete, err = p.boolValue()
	}
	return err
}

// foldedEqual reports whether a field name matches folded — an ASCII
// upper-case name — the way encoding/json matches struct fields: ASCII
// case-insensitively, plus the two non-ASCII runes whose simple case
// folding lands on an ASCII letter.
func foldedEqual(name []byte, folded string) bool {
	j := 0
	for i := 0; i < len(name); j++ {
		if j == len(folded) {
			return false
		}
		c := name[i]
		switch {
		case c < utf8.RuneSelf:
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		default:
			r, size := utf8.DecodeRune(name[i:])
			switch r {
			case 'ſ':
				c = 'S'
			case 'K': // Kelvin sign
				c = 'K'
			default:
				return false
			}
			i += size
		}
		if c != folded[j] {
			return false
		}
	}
	return j == len(folded)
}

func (p *BatchScanner) peek() byte {
	if p.pos < len(p.body) {
		return p.body[p.pos]
	}
	return 0
}

func (p *BatchScanner) skipSpace() {
	for p.pos < len(p.body) {
		switch p.body[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *BatchScanner) literal(lit string) error {
	if !bytes.HasPrefix(p.body[p.pos:], []byte(lit)) {
		return p.errf("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

func (p *BatchScanner) open() error {
	p.pos++
	if p.depth++; p.depth > maxWireDepth {
		return p.errf("exceeded max depth")
	}
	p.skipSpace()
	return nil
}

// object scans an object at p.pos, calling member with each member's
// unescaped name and p.pos at its value; member consumes the value.
func (p *BatchScanner) object(member func(name []byte) error) error {
	if err := p.open(); err != nil {
		return err
	}
	if p.peek() == '}' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if p.peek() != '"' {
			return p.errf("object member without a name")
		}
		name, err := p.stringValue()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() != ':' {
			return p.errf("object member without a colon")
		}
		p.pos++
		p.skipSpace()
		if err := member(name); err != nil {
			return err
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
			p.skipSpace()
		case '}':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errf("object member not followed by , or }")
		}
	}
}

// array scans an array at p.pos, calling element with p.pos at each
// element; element consumes it.
func (p *BatchScanner) array(element func() error) error {
	if err := p.open(); err != nil {
		return err
	}
	if p.peek() == ']' {
		p.pos++
		p.depth--
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
			p.skipSpace()
		case ']':
			p.pos++
			p.depth--
			return nil
		default:
			return p.errf("array element not followed by , or ]")
		}
	}
}

// skipValue checks and steps over any JSON value.
func (p *BatchScanner) skipValue() error {
	switch c := p.peek(); {
	case c == '{':
		return p.object(func([]byte) error { return p.skipValue() })
	case c == '[':
		return p.array(p.skipValue)
	case c == '"':
		_, _, err := p.stringEnd()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := p.number()
		return err
	default:
		return p.errf("invalid value")
	}
}

func (p *BatchScanner) boolValue() (bool, error) {
	switch p.peek() {
	case 't':
		return true, p.literal("true")
	case 'f':
		return false, p.literal("false")
	}
	return false, p.errf("value is not a boolean")
}

// number steps over a JSON number and reports whether it is written as
// an integer.
func (p *BatchScanner) number() (lit []byte, integer bool, err error) {
	b, i := p.body, p.pos
	digits := func() bool {
		at := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > at
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, p.errf("invalid number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, p.errf("invalid number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, p.errf("invalid number")
		}
	}
	lit = b[p.pos:i]
	p.pos = i
	return lit, integer, nil
}

func (p *BatchScanner) intValue() (int, error) {
	if c := p.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, p.errf("value is not a number")
	}
	lit, integer, err := p.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, p.errf("number %s is not an integer", lit)
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, p.errf("number %s overflows", lit)
	}
	return int(n), nil
}

// stringEnd checks the string at p.pos and steps over it. inner is what
// lies between the quotes; plain reports that it is printable ASCII
// with no escapes, so it is its own unescaped form.
func (p *BatchScanner) stringEnd() (inner []byte, plain bool, err error) {
	b, i := p.body, p.pos+1
	plain = true
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			inner = b[p.pos+1 : i]
			p.pos = i + 1
			return inner, plain, nil
		case c < ' ':
			p.pos = i
			return nil, false, p.errf("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			i++
			if i == len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || hex4(b[i+1:]) < 0 {
					p.pos = i
					return nil, false, p.errf("invalid \\u escape")
				}
				i += 4
			default:
				p.pos = i
				return nil, false, p.errf("invalid escape")
			}
		}
	}
	p.pos = len(b)
	return nil, false, p.errf("unterminated string")
}

// stringValue scans the string at p.pos and returns it unescaped.
func (p *BatchScanner) stringValue() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.errf("value is not a string")
	}
	inner, plain, err := p.stringEnd()
	if err != nil || plain {
		return inner, err
	}
	return p.unescape(inner), nil
}

// hex4 decodes four hex digits, -1 if they are not.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape appends the unescaped form of a checked string's inside to
// the scratch and returns it, coercing it to valid UTF-8 exactly as
// encoding/json does: an unpaired surrogate escape or an invalid byte
// becomes U+FFFD.
func (p *BatchScanner) unescape(s []byte) []byte {
	at := len(p.scratch)
	out := p.scratch
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			i++
			switch s[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 < len(s) && s[i+1] == '\\' && s[i+2] == 'u' {
						r2 = hex4(s[i+3:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default: // " \ /
				out = append(out, s[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	p.scratch = out
	return out[at:len(out):len(out)]
}

// dataValue scans a payload string and returns its base64 text, neither
// decoded nor checked: its decode checks it. The common case — no escapes
// in the text — copies nothing and reads the text only to find its end.
func (p *BatchScanner) dataValue() ([]byte, error) {
	switch p.peek() {
	case '"':
	case '[':
		return nil, errDataNotString
	default:
		return nil, p.errf("data is not a string")
	}
	rest := p.body[p.pos+1:]
	// With no escape before it, the text ends at the first quote.
	if q := bytes.IndexByte(rest, '"'); q >= 0 && bytes.IndexByte(rest[:q], '\\') < 0 {
		p.pos += q + 2
		return rest[:q:q], nil
	}
	// Escapes: take the string apart properly.
	inner, _, err := p.stringEnd()
	if err != nil {
		return nil, err
	}
	// The decoder skips CR and LF, which only an escape can put here.
	text := p.unescape(inner)
	inner = text[:0]
	for _, c := range text {
		if c != '\r' && c != '\n' {
			inner = append(inner, c)
		}
	}
	return inner, nil
}

// appendBase64 appends raw's standard base64 text, encoded in place.
func appendBase64(dst, raw []byte) []byte {
	at := len(dst)
	dst = growBytes(dst, base64.StdEncoding.EncodedLen(len(raw)))
	simd.Base64Encode(dst[at:], raw)
	return dst
}

// AppendGetResult appends one successful BatchGetItemResult: data is the
// little-endian values — or, encoded, the key's container —
// base64-encoded in place onto dst.
func AppendGetResult(dst []byte, key string, width int, complete, encoded bool, data []byte) []byte {
	dst = append(dst, `{"key":`...)
	dst = AppendJSONString(dst, key)
	dst = append(dst, `,"ok":true`...)
	if width != 0 {
		dst = append(dst, `,"width":`...)
		dst = strconv.AppendInt(dst, int64(width), 10)
	}
	if complete {
		dst = append(dst, `,"complete":true`...)
	}
	if encoded {
		dst = append(dst, `,"encoded":true`...)
	}
	if len(data) > 0 {
		dst = append(dst, `,"data":"`...)
		dst = append(appendBase64(dst, data), '"')
	}
	return append(dst, '}')
}

// AppendEncodedPutItem appends one BatchPutItem carrying an encoded-put
// container, base64-encoded in place onto dst.
func AppendEncodedPutItem(dst []byte, key string, container []byte) []byte {
	dst = append(dst, `{"key":`...)
	dst = AppendJSONString(dst, key)
	dst = append(dst, `,"encoded":true,"data":"`...)
	return append(appendBase64(dst, container), '"', '}')
}

// AppendGetFailure appends one failed BatchGetItemResult.
func AppendGetFailure(dst []byte, key, msg string, notFound bool) []byte {
	dst = append(dst, `{"key":`...)
	dst = AppendJSONString(dst, key)
	dst = append(dst, `,"ok":false`...)
	if msg != "" {
		dst = append(dst, `,"error":`...)
		dst = AppendJSONString(dst, msg)
	}
	if notFound {
		dst = append(dst, `,"not_found":true`...)
	}
	return append(dst, '}')
}

// AppendJSONString appends s as a JSON string: quotes, backslashes and
// control characters escaped, invalid UTF-8 replaced by U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
			i++
		case c < ' ':
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return append(dst, '"')
}
