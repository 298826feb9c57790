package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"avr/internal/store"
)

// appendDownsampleJSON appends d exactly as json.MarshalIndent(d, "",
// "  ") renders it — field for field, byte for byte — without the
// marshal-then-reindent double pass over what is mostly two long float
// arrays. Like encoding/json it refuses a NaN or infinite point.
func appendDownsampleJSON(dst []byte, d *store.DownsampleResult) ([]byte, error) {
	key, err := json.Marshal(d.Key) // the escaping rules stay encoding/json's
	if err != nil {
		return dst, err
	}
	dst = append(dst, "{\n  \"key\": "...)
	dst = append(dst, key...)
	dst = appendIntField(dst, "width", int64(d.Width))
	dst = appendIntField(dst, "factor", int64(d.Factor))
	if dst, err = appendFloatsField(dst, "points", d.Points); err != nil {
		return dst, err
	}
	if dst, err = appendFloatsField(dst, "bounds", d.Bounds); err != nil {
		return dst, err
	}
	dst = appendIntField(dst, "bytes_touched", d.BytesTouched)
	dst = appendIntField(dst, "bytes_total", d.BytesTotal)
	dst = appendIntField(dst, "blocks_avr", int64(d.BlocksAVR))
	dst = appendIntField(dst, "blocks_raw", int64(d.BlocksRaw))
	dst = appendIntField(dst, "blocks_lossless", int64(d.BlocksLossless))
	dst = append(dst, ",\n  \"complete\": "...)
	dst = strconv.AppendBool(dst, d.Complete)
	return append(dst, "\n}"...), nil
}

// appendIndented appends json.MarshalIndent(v, "", "  ").
func appendIndented(dst []byte, v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(dst, b...), err
}

func appendIntField(dst []byte, name string, v int64) []byte {
	dst = append(dst, ",\n  \""...)
	dst = append(dst, name...)
	dst = append(dst, "\": "...)
	return strconv.AppendInt(dst, v, 10)
}

func appendFloatsField(dst []byte, name string, vals []float64) ([]byte, error) {
	dst = append(dst, ",\n  \""...)
	dst = append(dst, name...)
	dst = append(dst, "\": "...)
	if vals == nil {
		return append(dst, "null"...), nil
	}
	if len(vals) == 0 {
		return append(dst, "[]"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("json: unsupported value: %v", v)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    "...)
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, "\n  ]"...), nil
}

// appendJSONFloat is encoding/json's float64 rule: shortest 'f' form,
// 'e' below 1e-6 and from 1e21 up, with e-09 cleaned up to e-9.
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
