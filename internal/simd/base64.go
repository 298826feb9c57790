package simd

import "encoding/base64"

// Standard base64 (RFC 4648 §4, padded) for the batch wire, whose
// payloads are 64 KiB a key. encoding/base64 is the definition: the
// vector body (AVX-512 VBMI, base64_amd64.s) only ever sees whole groups
// of the standard alphabet — 48 bytes ↔ 64 characters — and everything
// it cannot vouch for goes to base64.StdEncoding: the padded last
// quantum, the tail short of a group, and the whole of a text in which
// it met any other byte. So output bytes and accept/reject are the
// standard library's on every machine, and without VBMI these functions
// are the standard library.

// b64dec maps an ASCII byte to its 6-bit value, 0x80 for one outside the
// alphabet. c|b64dec[c&0x7F] therefore has its top bit set exactly for a
// byte that is not an alphabet character — the test the decode kernel
// makes 64 bytes at a time, with this table as its two VPERMI2B halves.
var b64dec = func() (t [128]byte) {
	for i := range t {
		t[i] = 0x80
	}
	for i, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" {
		t[c] = byte(i)
	}
	return t
}()

// base64Body is how much of an n-character text the vector tier takes:
// whole 64-character groups that stop short of the last quantum, the
// only place padding may stand.
func base64Body(n int) int {
	if n < 68 {
		return 0
	}
	return (n - 4) &^ 63
}

// Base64Encode writes the base64.StdEncoding form of src to dst, which
// must hold base64.StdEncoding.EncodedLen(len(src)) bytes.
func Base64Encode(dst, src []byte) {
	if n := len(src) / 48; n != 0 && hasVBMI {
		base64EncodeVBMI(dst[:n*64], src[:n*48])
		dst, src = dst[n*64:], src[n*48:]
	}
	base64.StdEncoding.Encode(dst, src)
}

// Base64Decode is base64.StdEncoding.Decode(dst, src) with the error
// reduced to ok: the same texts are accepted (CR and LF skipped, padding
// required) and the same n bytes written to dst, which must hold
// base64.StdEncoding.DecodedLen(len(src)). When ok is false n and the
// bytes of dst are unspecified.
func Base64Decode(dst, src []byte) (n int, ok bool) {
	if b := base64Body(len(src)); b != 0 && hasVBMI && base64DecodeVBMI(dst[:b/4*3], src[:b]) {
		// The body was all alphabet, so it ends on a quantum boundary and
		// the rest decodes on its own.
		n, err := base64.StdEncoding.Decode(dst[b/4*3:], src[b:])
		return b/4*3 + n, err == nil
	}
	n, err := base64.StdEncoding.Decode(dst, src)
	return n, err == nil
}
