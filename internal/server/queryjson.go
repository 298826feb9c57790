package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"avr/internal/store"
)

// The JSON answers of put and the three query ops, written by hand
// exactly as json.MarshalIndent(v, "", "  ") renders them — field for
// field, byte for byte — without its reflection and its
// marshal-then-reindent double pass. The key keeps encoding/json's
// escaping rules; floats follow its formatting rule (appendJSONFloat);
// like encoding/json, a NaN or infinite float refuses the whole answer.

// appendPutJSON appends r as json.MarshalIndent renders it.
func appendPutJSON(dst []byte, r *store.PutResult) ([]byte, error) {
	if err := finite(r.Ratio); err != nil {
		return dst, err
	}
	dst = appendKeyField(dst, r.Key)
	dst = appendIntField(dst, "values", int64(r.Values))
	dst = appendIntField(dst, "blocks", int64(r.Blocks))
	dst = appendIntField(dst, "lossless_blocks", int64(r.LosslessBlocks))
	dst = appendIntField(dst, "raw_bytes", r.RawBytes)
	dst = appendIntField(dst, "stored_bytes", r.StoredBytes)
	dst = appendFloatField(dst, "ratio", r.Ratio)
	return append(dst, "\n}"...), nil
}

// appendAggregateJSON appends a as json.MarshalIndent renders it.
func appendAggregateJSON(dst []byte, a *store.AggregateResult) ([]byte, error) {
	if err := finite(a.Sum, a.ErrorBound, a.Mean, a.MeanErrorBound, a.Min, a.MinErrorBound, a.Max, a.MaxErrorBound); err != nil {
		return dst, err
	}
	dst = appendKeyField(dst, a.Key)
	dst = appendIntField(dst, "width", int64(a.Width))
	dst = appendIntField(dst, "count", a.Count)
	dst = appendFloatField(dst, "sum", a.Sum)
	dst = appendFloatField(dst, "error_bound", a.ErrorBound)
	dst = appendFloatField(dst, "mean", a.Mean)
	dst = appendFloatField(dst, "mean_error_bound", a.MeanErrorBound)
	dst = appendFloatField(dst, "min", a.Min)
	dst = appendFloatField(dst, "min_error_bound", a.MinErrorBound)
	dst = appendFloatField(dst, "max", a.Max)
	dst = appendFloatField(dst, "max_error_bound", a.MaxErrorBound)
	return appendStatsClose(dst, &a.QueryStats), nil
}

// appendFilterJSON appends f as json.MarshalIndent renders it.
func appendFilterJSON(dst []byte, f *store.FilterResult) ([]byte, error) {
	if err := finite(f.Lo, f.Hi); err != nil {
		return dst, err
	}
	dst = appendKeyField(dst, f.Key)
	dst = appendIntField(dst, "width", int64(f.Width))
	dst = appendFloatField(dst, "lo", f.Lo)
	dst = appendFloatField(dst, "hi", f.Hi)
	dst = appendIntField(dst, "matches", f.Matches)
	dst = appendIntField(dst, "matches_min", f.MatchesMin)
	dst = appendIntField(dst, "matches_max", f.MatchesMax)
	dst = appendIntField(dst, "error_bound", f.ErrorBound)
	return appendStatsClose(dst, &f.QueryStats), nil
}

// appendDownsampleJSON appends d as json.MarshalIndent renders it: what
// it saves there is the reindent pass over two long float arrays.
func appendDownsampleJSON(dst []byte, d *store.DownsampleResult) ([]byte, error) {
	if err := finite(d.Points...); err != nil {
		return dst, err
	}
	if err := finite(d.Bounds...); err != nil {
		return dst, err
	}
	dst = appendKeyField(dst, d.Key)
	dst = appendIntField(dst, "width", int64(d.Width))
	dst = appendIntField(dst, "factor", int64(d.Factor))
	dst = appendFloatsField(dst, "points", d.Points)
	dst = appendFloatsField(dst, "bounds", d.Bounds)
	return appendStatsClose(dst, &d.QueryStats), nil
}

// finite is encoding/json's refusal of a NaN or infinite float.
func finite(vals ...float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("json: unsupported value: %v", v)
		}
	}
	return nil
}

// appendKeyField opens an object with its "key" field.
func appendKeyField(dst []byte, key string) []byte {
	k, _ := json.Marshal(key) // a string always marshals
	dst = append(dst, "{\n  \"key\": "...)
	return append(dst, k...)
}

// appendStatsClose appends the fields of an embedded QueryStats and
// closes the object.
func appendStatsClose(dst []byte, st *store.QueryStats) []byte {
	dst = appendIntField(dst, "bytes_touched", st.BytesTouched)
	dst = appendIntField(dst, "bytes_total", st.BytesTotal)
	dst = appendIntField(dst, "blocks_avr", int64(st.BlocksAVR))
	dst = appendIntField(dst, "blocks_raw", int64(st.BlocksRaw))
	dst = appendIntField(dst, "blocks_lossless", int64(st.BlocksLossless))
	dst = appendFieldName(dst, "complete")
	dst = strconv.AppendBool(dst, st.Complete)
	return append(dst, "\n}"...)
}

func appendFieldName(dst []byte, name string) []byte {
	dst = append(dst, ",\n  \""...)
	dst = append(dst, name...)
	return append(dst, "\": "...)
}

func appendIntField(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(appendFieldName(dst, name), v, 10)
}

func appendFloatField(dst []byte, name string, v float64) []byte {
	return appendJSONFloat(appendFieldName(dst, name), v)
}

// appendFloatsField appends a float array field; the caller has checked
// every value is finite.
func appendFloatsField(dst []byte, name string, vals []float64) []byte {
	dst = appendFieldName(dst, name)
	if vals == nil {
		return append(dst, "null"...)
	}
	if len(vals) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    "...)
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, "\n  ]"...)
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
