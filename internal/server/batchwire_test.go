package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// lenient reports the two documented cases where the scanner rejects
// what encoding/json lets through.
func lenient(err error) bool {
	return errors.Is(err, errDuplicateArray) || errors.Is(err, errDataNotString)
}

// checkPutRequest holds the scanner to encoding/json on one body: same
// verdict — the scan's and every payload's decode together, since a
// payload is checked where it is decoded — and same items; and the
// emitter's rendering of an encoded item means the item.
func checkPutRequest(t *testing.T, body []byte) {
	t.Helper()
	var ref BatchPutRequest
	refErr := json.Unmarshal(body, &ref)
	sc := NewBatchScanner()
	defer sc.Release()
	err := sc.ScanPutRequest(body)
	if lenient(err) {
		return
	}
	payloads, err := decodeAll(t, body, sc.Items, err)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("put request %q: scanner says %v, encoding/json says %v", body, err, refErr)
	}
	if err != nil {
		return
	}
	if len(sc.Items) != len(ref.Items) {
		t.Fatalf("put request %q: %d items, encoding/json has %d", body, len(sc.Items), len(ref.Items))
	}
	for i := range sc.Items {
		it, want := &sc.Items[i], ref.Items[i]
		if string(it.Key) != want.Key || it.Width != want.Width || it.Encoded != want.Encoded {
			t.Fatalf("put request %q item %d: key %q width %d encoded %v, want %q %d %v",
				body, i, it.Key, it.Width, it.Encoded, want.Key, want.Width, want.Encoded)
		}
		if !bytes.Equal(payloads[i], want.Data) {
			t.Fatalf("put request %q item %d: data %x, want %x", body, i, payloads[i], want.Data)
		}
		if !want.Encoded {
			continue
		}
		// A container is any bytes to the emitter; the width is dropped.
		var back BatchPutItem
		err := json.Unmarshal(AppendEncodedPutItem(nil, string(it.Key), want.Data), &back)
		if want.Width = 0; err != nil || back.Key != want.Key || !back.Encoded || back.Width != 0 || !bytes.Equal(back.Data, want.Data) {
			t.Fatalf("put request %q item %d: emitted it means %+v (%v), want %+v", body, i, back, err, want)
		}
	}
}

// decodeAll decodes every scanned item's payload — onto a prefix, which
// a failed decode must leave as it was — and folds the first failure into
// the scan's verdict err.
func decodeAll(t *testing.T, body []byte, items []WireItem, err error) ([][]byte, error) {
	t.Helper()
	payloads := make([][]byte, len(items))
	for i := range items {
		got, derr := items[i].AppendData([]byte("kept"))
		if derr != nil && string(got) != "kept" {
			t.Fatalf("body %q item %d: a failed decode left %q of dst", body, i, got)
		}
		if err == nil {
			err = derr
		}
		payloads[i] = got[len("kept"):]
	}
	return payloads, err
}

// checkGetResult is checkPutRequest for BatchGetResult, plus the
// emitter: every result written back out parses to the same result.
func checkGetResult(t *testing.T, body []byte) {
	t.Helper()
	var ref BatchGetResult
	refErr := json.Unmarshal(body, &ref)
	sc := NewBatchScanner()
	defer sc.Release()
	err := sc.ScanGetResult(body)
	if lenient(err) {
		return
	}
	payloads, err := decodeAll(t, body, sc.Items, err)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("get result %q: scanner says %v, encoding/json says %v", body, err, refErr)
	}
	if err != nil {
		return
	}
	if len(sc.Items) != len(ref.Results) {
		t.Fatalf("get result %q: %d results, encoding/json has %d", body, len(sc.Items), len(ref.Results))
	}
	emitted := []byte(GetResultOpen)
	for i := range sc.Items {
		it, want := &sc.Items[i], ref.Results[i]
		if string(it.Key) != want.Key || it.OK != want.OK || string(it.Error) != want.Error || it.NotFound != want.NotFound ||
			it.Width != want.Width || it.Complete != want.Complete || it.Encoded != want.Encoded {
			t.Fatalf("get result %q item %d: scanned %+v, want %+v", body, i, *it, want)
		}
		if !bytes.Equal(payloads[i], want.Data) {
			t.Fatalf("get result %q item %d: data %x, want %x", body, i, payloads[i], want.Data)
		}
		if i > 0 {
			emitted = append(emitted, ',')
		}
		if want.OK {
			emitted = AppendGetResult(emitted, want.Key, want.Width, want.Complete, want.Encoded, want.Data)
		} else {
			emitted = AppendGetFailure(emitted, want.Key, want.Error, want.NotFound)
		}
	}
	emitted = append(emitted, BatchClose...)
	var back BatchGetResult
	if err := json.Unmarshal(emitted, &back); err != nil {
		t.Fatalf("get result %q: emitted %q does not parse: %v", body, emitted, err)
	}
	for i, got := range back.Results {
		want := ref.Results[i]
		if want.OK {
			want.Error, want.NotFound = "", false // a success carries neither
		} else {
			want.Width, want.Complete, want.Encoded, want.Data = 0, false, false, nil
		}
		if got.Key != want.Key || got.OK != want.OK || got.Error != want.Error || got.NotFound != want.NotFound ||
			got.Width != want.Width || got.Complete != want.Complete || got.Encoded != want.Encoded || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("get result %q item %d: emitted %+v, want %+v", body, i, got, want)
		}
	}
}

// kernelSeeds are payloads long enough — 268 characters, the first 256
// of them whole 64-character groups — to reach internal/simd's vector
// tier on a machine that has one: good, a bad byte in the vector body,
// one in the scalar tail, and an escaped line break mid-text (which the
// decoder skips), each as a put item, an encoded put item and a get
// result.
func kernelSeeds() []string {
	raw := make([]byte, 200)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	good := base64.StdEncoding.EncodeToString(raw)
	var seeds []string
	for _, text := range []string{
		good,
		good[:100] + "*" + good[101:],
		good[:260] + "*" + good[261:],
		good[:100] + `\n` + good[100:],
	} {
		seeds = append(seeds,
			`{"items":[{"key":"a","width":32,"data":"`+text+`"},{"key":"b","data":"AAAA"}]}`,
			`{"items":[{"key":"a","encoded":true,"data":"`+text+`"}]}`,
			`{"results":[{"key":"a","ok":true,"width":32,"data":"`+text+`"},{"key":"b","ok":true,"data":"AAAA"}]}`)
	}
	return seeds
}

// wireSeeds are bodies chosen to take every branch of the scanner.
var wireSeeds = append([]string{
	// the plain shapes
	`{"items":[{"key":"a","width":32,"data":"AAAAAA=="}]}`,
	`{"items":[{"key":"a","data":"AAECAw=="},{"key":"b","width":64,"data":"AAECAwQFBgc="}]}`,
	`{"results":[{"key":"a","ok":true,"width":32,"complete":true,"data":"AAECAw=="},{"key":"b","ok":false,"error":"store: key not found","not_found":true}]}`,
	"{ \"items\" :\t[ {\r\n\"key\" : \"a\" , \"data\" : \"AAAA\" } ] }\n",
	`{}`, `null`, ` null `, `{"items":[]}`, `{"items":null}`, `{"results":[null]}`, `{"items":[null,{"key":"k"}]}`,
	// escaped keys and errors
	`{"items":[{"key":"a\"b\\c\/dé\n","data":"AAAA"}]}`,
	`{"items":[{"key":"😀 \ud83d \ude00 \udc00\ud800","data":"AAAA"}]}`,
	"{\"items\":[{\"key\":\"caf\xc3\xa9 \xff\xfe\",\"data\":\"AAAA\"}]}",
	`{"results":[{"key":"k","ok":false,"error":"store: key \"k\": <&>   \t"}]}`,
	// escapes inside data
	`{"items":[{"key":"a","data":"AA\/A"}]}`,
	`{"items":[{"key":"a","data":"AAAA\nAAAA\r\n"}]}`,
	`{"items":[{"key":"a","data":"AAAA"}]}`,
	`{"items":[{"key":"a","data":"AA\"A"}]}`,
	`{"items":[{"key":"a","data":"AA=\n="}]}`,
	// reordered, unknown and case-folded fields
	`{"x":1,"items":[{"data":"AAAA","extra":{"a":[1,2,{"b":null}],"c":"d"},"width":64,"key":"z"}],"y":[true,false]}`,
	`{"ITEMS":[{"KEY":"a","Width":32,"DaTa":"AAAA"}]}`,
	`{"itemſ":[{"Key":"kelvin","data":"AAAA"}]}`,
	`{"results":[{"Key":"a","OK":true,"Not_Found":true,"COMPLETE":true,"Error":"e","ok":false}]}`,
	`{"items":[{"ok":5,"error":[],"complete":"x","not_found":{},"key":"put items ignore result fields"}]}`,
	// encoded items
	`{"items":[{"key":"a","encoded":true,"data":"QVZSUA=="},{"key":"b","encoded":false,"width":64,"data":"AAAA"}]}`,
	`{"items":[{"key":"a","ENCODED":true,"encoded":null,"data":"AAAA"}]}`,
	`{"items":[{"key":"a","encoded":1}]}`, `{"items":[{"key":"a","encoded":"true"}]}`,
	`{"results":[{"key":"a number is no flag","ok":true,"encoded":5}]}`,
	// duplicates and nulls
	`{"items":[{"key":"a","key":"b","width":64,"width":32,"data":"AAAA","data":"AAECAw=="}]}`,
	`{"items":[{"key":"a","key":null,"width":64,"width":null,"data":"AAAA","data":null}]}`,
	`{"items":[{"key":"a","data":"AAAA"},{"key":"a","data":"AAECAw=="}]}`,
	`{"items":[{"key":"a","data":"!!!!","data":"AAAA"}]}`,
	`{"items":[{"key":"a"}],"items":[{"key":"b"}]}`,
	`{"results":[{"key":"a","ok":true,"width":32,"complete":true,"encoded":true,"data":"QVZSUA=="}]}`,
	`{"results":[{"key":"a","ok":true,"data":"!!!!","data":"AAAA"},{"key":"b","ok":true,"data":"AA=A"}]}`,
	`{"items":[],"items":[{"key":"b"}]}`,
	`{"items":[{"key":"a"}],"items":null,"items":[{"key":"b"}]}`,
	`{"items":[{"key":"a","data":[1,2,3]}]}`,
	// wrong types
	`[]`, `5`, `"items"`, `true`, `{"items":5}`, `{"items":{}}`, `{"items":[5]}`, `{"items":["a"]}`,
	`{"items":[{"key":5}]}`, `{"items":[{"key":"a","width":"32"}]}`, `{"items":[{"key":"a","width":32.0}]}`,
	`{"items":[{"key":"a","width":1e2}]}`, `{"items":[{"key":"a","width":-0}]}`,
	`{"items":[{"key":"a","width":99999999999999999999}]}`, `{"items":[{"key":"a","data":5}]}`,
	`{"results":[{"key":"a","ok":"true"}]}`, `{"results":[{"key":"a","ok":1}]}`,
	// bad base64
	`{"items":[{"key":"a","data":"AAA"}]}`, `{"items":[{"key":"a","data":"A==="}]}`,
	`{"items":[{"key":"a","data":"AA=A"}]}`, `{"items":[{"key":"a","data":"AA-_"}]}`,
	`{"items":[{"key":"a","data":"AAAA "}]}`, `{"items":[{"key":"a","data":"AAAA===="}]}`,
	"{\"items\":[{\"key\":\"a\",\"data\":\"AAAA\nAAAA\"}]}",
	"{\"items\":[{\"key\":\"a\",\"data\":\"AA\r\n\r\nAA\"}]}", "{\"items\":[{\"key\":\"a\",\"data\":\"\n\n\n\n\"}]}",
	"{\"items\":[{\"key\":\"a\",\"data\":\"AA\tA\"}]}", "{\"items\":[{\"key\":\"a\",\"data\":\"AA\xc3\xa9\"}]}",
	`{"items":[{"key":"a","data":"=AAA"}]}`, `{"items":[{"key":"a","data":"===="}]}`, `{"items":[{"key":"a","data":"AAAAAA=A"}]}`,
	`{"items":[{"key":"a","data":"AAA\\"}]}`, `{"items":[{"key":"a","data":"AAA\""}]}`, `{"items":[{"key":"a","data":"AA\u0041A"}]}`,
	// truncated and malformed bodies
	``, `{`, `{"items"`, `{"items":`, `{"items":[`, `{"items":[{`, `{"items":[{"key"`, `{"items":[{"key":"a`,
	`{"items":[{"key":"a","data":"AAAA`, `{"items":[{"key":"a","data":"AAAA"}`, `{"items":[{"key":"a"}]`,
	`{"items":[{"key":"a"}]}x`, `{"items":[{"key":"a"},]}`, `{"items":[{"key":"a",}]}`, `{,}`,
	`{"items":[{"key":"a\x"}]}`, `{"items":[{"key":"a\u12"}]}`, `{"items":[{"key":"a\u12g4"}]}`, `{"items":[{"key":"\`,
	"{\"items\":[{\"key\":\"a\tb\"}]}", `{"items":[{"key":"a","width":01}]}`, `{"items":[{"key":"a","width":-}]}`,
	`{"items":[{"key":"a","width":1.}]}`, `{"items":[{"key":"a","width":1e}]}`, `{"items":[{"key":"a","x":tru}]}`,
	`{"items":[{"key":"a","x":nul}]}`, `{"items":[{"key":"a","x":+1}]}`, `nul`, `nullx`, `{"items":[{"key":"a"} {"key":"b"}]}`,
	`{"items":[{"key" "a"}]}`, `{"items":[{key:"a"}]}`, "\xef\xbb\xbf{}",
}, kernelSeeds()...)

func TestBatchWireSeeds(t *testing.T) {
	for _, s := range wireSeeds {
		checkPutRequest(t, []byte(s))
		checkGetResult(t, []byte(s))
	}
}

// TestBatchWireDepthLimit pins the nesting limit to encoding/json's.
func TestBatchWireDepthLimit(t *testing.T) {
	for _, depth := range []int{maxWireDepth - 2, maxWireDepth - 1, maxWireDepth} {
		// two levels of batch structure around the nested value
		body := `{"items":[{"x":` + strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2) + `}]}`
		checkPutRequest(t, []byte(body))
	}
}

// TestBatchWireLargePayload runs a real-sized batch both ways.
func TestBatchWireLargePayload(t *testing.T) {
	body, _ := put8Body()
	checkPutRequest(t, body)
	checkGetResult(t, get8Body())
}

// FuzzBatchWire holds the scanner and the emitter to encoding/json on
// arbitrary bodies: same accept/reject verdict (the payloads' decodes
// included), same keys, widths, flags and decoded payloads, emitted
// items and results that parse back, and no panic.
func FuzzBatchWire(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPutRequest(t, body)
		checkGetResult(t, body)
	})
}

// benchValues is one key's 64 KiB of raw values.
func benchValues(k int) []byte {
	raw := make([]byte, 64<<10)
	for i := range raw {
		raw[i] = byte(i*7 + k*13)
	}
	return raw
}

// put8Body is an mput request of 8 keys x 64 KiB, as a client frames it.
func put8Body() (body []byte, rawBytes int) {
	body = []byte(PutRequestOpen)
	for k := 0; k < 8; k++ {
		if k > 0 {
			body = append(body, ',')
		}
		raw := benchValues(k)
		rawBytes += len(raw)
		body = append(body, fmt.Sprintf(`{"key":"bench-%04d","width":32,"data":"`, k)...)
		body = base64.StdEncoding.AppendEncode(body, raw)
		body = append(body, `"}`...)
	}
	return append(body, BatchClose...), rawBytes
}

// get8Body is the matching mget reply.
func get8Body() []byte {
	body := []byte(GetResultOpen)
	for k := 0; k < 8; k++ {
		if k > 0 {
			body = append(body, ',')
		}
		body = AppendGetResult(body, fmt.Sprintf("bench-%04d", k), 32, true, false, benchValues(k))
	}
	return append(body, BatchClose...)
}

// BenchmarkBatchScanPut8 scans an mput body of 8 x 64 KiB: what the
// router pays per batch instead of a json.Unmarshal. Gated at 0 allocs.
func BenchmarkBatchScanPut8(b *testing.B) {
	body, _ := put8Body()
	sc := NewBatchScanner()
	defer sc.Release()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.ScanPutRequest(body); err != nil || len(sc.Items) != 8 {
			b.Fatalf("scan: %v, %d items", err, len(sc.Items))
		}
	}
}

// BenchmarkBatchScanGet8 scans an mget reply of 8 x 64 KiB, each
// payload's text read only to find its end (its decode checks it): the
// scan a router runs over every leg reply before it decodes the
// containers in it. Gated at 0 allocs.
func BenchmarkBatchScanGet8(b *testing.B) {
	body := get8Body()
	sc := NewBatchScanner()
	defer sc.Release()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.ScanGetResult(body); err != nil || len(sc.Items) != 8 {
			b.Fatalf("scan: %v, %d items", err, len(sc.Items))
		}
	}
}

// BenchmarkBatchDecodePut8 decodes the 8 payloads of a scanned mput body
// into a retained buffer: what avrd pays to store them and the router to
// encode them. Gated at 0 allocs.
func BenchmarkBatchDecodePut8(b *testing.B) {
	body, rawBytes := put8Body()
	sc := NewBatchScanner()
	defer sc.Release()
	if err := sc.ScanPutRequest(body); err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, rawBytes)
	b.SetBytes(int64(rawBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for k := range sc.Items {
			var err error
			if out, err = sc.Items[k].AppendData(out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchEmitGet8 emits an mget reply of 8 x 64 KiB into a
// retained buffer: what avrd pays instead of a json.Marshal. Gated at 0
// allocs.
func BenchmarkBatchEmitGet8(b *testing.B) {
	var raws [8][]byte
	var keys [8]string
	for k := range raws {
		raws[k], keys[k] = benchValues(k), fmt.Sprintf("bench-%04d", k)
	}
	out := get8Body()
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = append(out[:0], GetResultOpen...)
		for k := range raws {
			if k > 0 {
				out = append(out, ',')
			}
			out = AppendGetResult(out, keys[k], 32, true, false, raws[k])
		}
		out = append(out, BatchClose...)
	}
}
