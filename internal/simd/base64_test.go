package simd

import (
	"bytes"
	"encoding/base64"
	"math/rand"
	"testing"
)

// The base64 functions are pinned to encoding/base64: same output bytes,
// same accept/reject, on every input tried. On a machine without
// AVX-512 VBMI they are the standard library and those comparisons are
// trivially true.

var std = base64.StdEncoding

func checkEncode(t testing.TB, src []byte) []byte {
	t.Helper()
	want := make([]byte, std.EncodedLen(len(src)))
	std.Encode(want, src)
	got := bytes.Repeat([]byte{0xEE}, len(want)+1)[1:] // off the allocation's alignment
	Base64Encode(got, src)
	if !bytes.Equal(got, want) {
		t.Fatalf("Base64Encode(%d bytes) differs from encoding/base64\n got %q\nwant %q", len(src), got, want)
	}
	return want
}

// checkText holds Base64Decode to the standard library's verdict on text,
// and to its bytes.
func checkText(t testing.TB, text []byte) {
	t.Helper()
	want := make([]byte, std.DecodedLen(len(text)))
	wn, err := std.Decode(want, text)
	got := bytes.Repeat([]byte{0xEE}, len(want))
	n, ok := Base64Decode(got, text)
	if ok != (err == nil) {
		t.Fatalf("Base64Decode(%q) ok = %v, encoding/base64 says %v", text, ok, err)
	}
	if ok && (n != wn || !bytes.Equal(got[:n], want[:wn])) {
		t.Fatalf("Base64Decode(%q) = %d bytes %x, encoding/base64 %d bytes %x", text, n, got[:n], wn, want[:wn])
	}
}

func TestBase64MatchesStdlibEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lengths := make([]int, 0, 1100)
	for n := 0; n <= 1024; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 48; i++ {
		lengths = append(lengths, rng.Intn(256<<10+1))
	}
	buf := make([]byte, 256<<10+1)
	for _, n := range lengths {
		src := buf[1 : 1+n]
		rng.Read(src)
		if n%5 == 0 { // the alphabet's ends: 0x00 → 'A', 0xFF → '/', 0xFB.. → '+'
			for i := range src {
				src[i] = [...]byte{0x00, 0xFF, 0xFB, 0xEF, 0xBE}[rng.Intn(5)]
			}
		}
		text := checkEncode(t, src)
		checkText(t, text)
		// And the text itself as odd-length input: every cut of the last
		// two quanta, which is where a text stops being whole.
		for cut := 1; cut <= 8 && cut <= len(text); cut++ {
			checkText(t, text[:len(text)-cut])
		}
	}
}

// TestBase64InjectedBytes puts every byte value at every offset of texts
// whose first 192 characters are vector body and whose last quantum is
// each padding form: '=' mid-text, CR and LF (which the decoder skips,
// so the text comes up a character short), bytes ≥ 0x80 (which index the
// decode table as their low seven bits), the URL alphabet's '-' and '_'.
func TestBase64InjectedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{192, 193, 194} {
		src := make([]byte, n)
		rng.Read(src)
		text := checkEncode(t, src)
		if len(text) < 256 || base64Body(len(text)) < 192 {
			t.Fatalf("%d-character text does not reach the vector body", len(text))
		}
		for at := range text {
			keep := text[at]
			for c := 0; c < 256; c++ {
				text[at] = byte(c)
				checkText(t, text)
			}
			text[at] = keep
		}
	}
}

func TestBase64PaddingAndNewlines(t *testing.T) {
	tails := []string{
		"", "A", "AA", "AAA", "AAAA", "AA==", "AAA=", "AAB=", "AB==", "A===", "====", "=", "==", "===",
		"AA=A", "A=AA", "=AAA", "AA=", "AAAA=", "AAAA==", "AAAA====", "AA==AAAA", "AAA=AAAA",
		"AA==\n", "AA==\r\n", "AA=\n=", "AA\n==", "\nAA==", "AAAA\r\n", "\r\n", "AA==\r\nAA==", "AA== ",
	}
	body := bytes.Repeat([]byte("QUJD"), 64) // 256 characters
	for _, prefix := range []int{0, 60, 64, 68, 128, 192, 256} {
		for _, tail := range tails {
			checkText(t, append(body[:prefix:prefix], tail...))
		}
	}
	// A MIME-style text — a line break every 76 characters — is one the
	// decoder accepts, the line breaks skipped.
	src := make([]byte, 3000)
	rand.New(rand.NewSource(26)).Read(src)
	text := checkEncode(t, src)
	var mime []byte
	for len(text) > 76 {
		mime = append(append(mime, text[:76]...), '\r', '\n')
		text = text[76:]
	}
	mime = append(mime, text...)
	checkText(t, mime)
	if n, ok := Base64Decode(make([]byte, std.DecodedLen(len(mime))), mime); !ok || n != len(src) {
		t.Fatalf("MIME text decoded to %d bytes, ok %v; want %d", n, ok, len(src))
	}
}

func FuzzBase64(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("AA=="))
	f.Add(bytes.Repeat([]byte("QUJD"), 40))
	f.Add(append(bytes.Repeat([]byte("QUJD"), 40), "AA\r\n=="...))
	f.Add(append(bytes.Repeat([]byte{0xFB, 0xEF, 0xBE, 0x00}, 60), '-', '_', '='))
	f.Fuzz(func(t *testing.T, b []byte) {
		text := checkEncode(t, b)
		back := make([]byte, std.DecodedLen(len(text)))
		if n, ok := Base64Decode(back, text); !ok || !bytes.Equal(back[:n], b) {
			t.Fatalf("round trip of %x: ok %v, got %x", b, ok, back[:n])
		}
		checkText(t, b)
	})
}
