package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// EpochWriter renders epochs to an output stream. Implementations are
// meant for export paths (avrsim trace), not the simulation hot path,
// and may allocate.
type EpochWriter interface {
	WriteEpoch(Epoch) error
	// Flush drains any buffering after the last epoch.
	Flush() error
}

// NewEpochWriter returns the writer for a format name: "csv" or "jsonl".
func NewEpochWriter(format string, w io.Writer) (EpochWriter, error) {
	switch format {
	case "csv":
		return NewCSVWriter(w), nil
	case "jsonl":
		return NewJSONLWriter(w), nil
	}
	return nil, fmt.Errorf("obs: unknown format %q (have csv, jsonl)", format)
}

// CSVWriter renders epochs as CSV: one header row, then one row per
// epoch with the deltas, the derived per-epoch metrics and the
// cumulative clock columns.
type CSVWriter struct {
	w           *bufio.Writer
	wroteHeader bool
}

// NewCSVWriter creates a CSV epoch writer over w.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: bufio.NewWriter(w)} }

// csvHeader lists the exported columns; d_ prefixes mark per-epoch
// deltas, total_ prefixes cumulative counters.
const csvHeader = "epoch,final," +
	"total_cycles,total_instructions,total_accesses," +
	"d_cycles,d_instructions,d_accesses,d_llc_misses," +
	"d_dram_read_bytes,d_dram_write_bytes,d_dram_approx_bytes,d_cmt_bytes," +
	"d_compresses,d_decompresses,d_outliers," +
	"ipc,mpki,compression_ratio"

// WriteEpoch renders one epoch row (emitting the header first).
func (c *CSVWriter) WriteEpoch(e Epoch) error {
	if !c.wroteHeader {
		c.wroteHeader = true
		if _, err := c.w.WriteString(csvHeader + "\n"); err != nil {
			return err
		}
	}
	final := 0
	if e.Final {
		final = 1
	}
	d := e.Delta
	_, err := fmt.Fprintf(c.w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%.3f\n",
		e.Index, final,
		e.Total.Cycles, e.Total.Instructions, e.Total.Accesses,
		d.Cycles, d.Instructions, d.Accesses, d.LLCMisses,
		d.DRAMReadBytes, d.DRAMWriteBytes, d.DRAMApproxBytes, d.CMTBytes,
		d.Compresses, d.Decompresses, d.Outliers,
		d.IPC(), d.MPKI(), d.CompressionRatio())
	return err
}

// Flush drains the buffer.
func (c *CSVWriter) Flush() error { return c.w.Flush() }

// JSONLWriter renders epochs as JSON Lines: one object per epoch with
// the delta and total counter snapshots plus the derived metrics.
type JSONLWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter creates a JSONL epoch writer over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{w: bw, enc: json.NewEncoder(bw)}
}

// epochJSON is the JSONL wire form of one epoch: the raw Epoch plus the
// derived per-epoch metrics, precomputed so downstream plotting needs no
// arithmetic.
type epochJSON struct {
	Epoch            uint64   `json:"epoch"`
	Final            bool     `json:"final,omitempty"`
	IPC              float64  `json:"ipc"`
	MPKI             float64  `json:"mpki"`
	CompressionRatio float64  `json:"compression_ratio"`
	Delta            Counters `json:"delta"`
	Total            Counters `json:"total"`
}

// WriteEpoch renders one epoch object followed by a newline.
func (j *JSONLWriter) WriteEpoch(e Epoch) error {
	return j.enc.Encode(epochJSON{
		Epoch:            e.Index,
		Final:            e.Final,
		IPC:              e.Delta.IPC(),
		MPKI:             e.Delta.MPKI(),
		CompressionRatio: e.Delta.CompressionRatio(),
		Delta:            e.Delta,
		Total:            e.Total,
	})
}

// Flush drains the buffer.
func (j *JSONLWriter) Flush() error { return j.w.Flush() }
