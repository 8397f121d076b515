package httpserve

import (
	"bufio"
	"encoding/json"
	"net/http"

	"cqrep/internal/relation"
)

// streamwriter.go is the one server-side stream encoder: the Handler's
// query path drives it block by block, the coordinator (internal/coord) —
// which consumes worker streams in the binary framing and re-encodes the
// merged result in whatever format the client negotiated — tuple by tuple.
// The delivery discipline lives here and nowhere else, so a stream relayed
// through the coordinator is byte-identical to one served directly by
// construction.

// StreamWriter writes one result stream to an http.ResponseWriter in a
// negotiated Format, and owns the delivery discipline: the first tuple
// flushes alone (batching never defers first-answer delay), steady state
// flushes per batch for binary and per line for NDJSON — the stream is the
// product, and a slow structure's delay must never hide behind a buffer —
// and every stream ends with an explicit terminal: End, Error, or (NDJSON)
// clean EOF. Nothing is committed to the wire before the first
// Tuple/Block/End/Error call, so a caller whose upstream fails before
// producing anything (Wrote() == 0) can still answer with a real error
// status instead.
type StreamWriter struct {
	flusher http.Flusher
	bw      *bufio.Writer
	enc     *binaryWriter // binary only; nil means NDJSON
	line    []byte        // ndjson scratch
	batch   int
	limit   int // current flush threshold (1-then-batch ramp)
	wrote   int
}

// NewStreamWriter stages a stream of the given format and arity. Headers
// (Content-Type, the binary magic+arity) are buffered, not sent: the
// status line commits on the first flush.
func NewStreamWriter(w http.ResponseWriter, format Format, arity, flushBatch int) *StreamWriter {
	if flushBatch <= 0 {
		flushBatch = defaultFlushBatch
	}
	flusher, _ := w.(http.Flusher)
	sw := &StreamWriter{flusher: flusher, batch: flushBatch, limit: 1}
	w.Header().Set("Content-Type", format.MediaType())
	if format == FormatBinary {
		sw.bw = bufio.NewWriterSize(w, 32*1024)
		sw.enc = newBinaryWriter(sw.bw)
		sw.enc.Header(arity)
	} else {
		sw.bw = bufio.NewWriterSize(w, 4096)
	}
	return sw
}

// Wrote reports how many tuples have been staged or sent. A caller seeing
// an upstream failure at Wrote()==0 still owns the status line and should
// answer with a real HTTP error instead of Error.
func (sw *StreamWriter) Wrote() int { return sw.wrote }

func (sw *StreamWriter) flush() error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
	}
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

// Tuple stages one tuple; a non-nil error means the client is gone and the
// stream should be abandoned.
func (sw *StreamWriter) Tuple(t relation.Tuple) error {
	sw.wrote++
	if sw.enc != nil {
		sw.enc.Add(t)
		return sw.flushIfDue()
	}
	sw.line = appendTupleJSON(sw.line[:0], t)
	if _, err := sw.bw.Write(sw.line); err != nil {
		return err
	}
	return sw.flush()
}

// Room reports how many tuples the stream takes before its next flush is
// due: 1 on a fresh binary stream and FlushBatch from then on (less
// whatever is already pending), always 1 for NDJSON. A producer that can
// enumerate in blocks asks its source for this many and hands them to
// Block, which keeps every frame boundary where tuple-at-a-time delivery
// would have put it.
func (sw *StreamWriter) Room() int {
	if sw.enc != nil {
		return sw.limit - sw.enc.Pending()
	}
	return 1
}

// Block stages a run of tuples — borrowed: they are encoded before Block
// returns and not retained — with Tuple's error contract.
func (sw *StreamWriter) Block(ts []relation.Tuple) error {
	if sw.enc != nil {
		sw.wrote += len(ts)
		sw.enc.AddBlock(ts)
		return sw.flushIfDue()
	}
	for _, t := range ts {
		if err := sw.Tuple(t); err != nil {
			return err
		}
	}
	return nil
}

// flushIfDue is the binary 1-then-batch ramp: the pending frame ships once
// it holds limit tuples, and the first shipment raises limit to the batch.
func (sw *StreamWriter) flushIfDue() error {
	if sw.enc.Pending() < sw.limit {
		return nil
	}
	sw.limit = sw.batch
	return sw.flush()
}

// End terminates a complete stream: pending tuples, then the binary end
// frame (NDJSON completeness is the clean EOF).
func (sw *StreamWriter) End() error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
		if err := sw.enc.End(); err != nil {
			return err
		}
	}
	return sw.flush()
}

// Error terminates a failed stream with the terminal the format defines:
// the binary error frame or the NDJSON {"error": ...} object.
func (sw *StreamWriter) Error(msg string) error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
		if err := sw.enc.Error(msg); err != nil {
			return err
		}
		return sw.flush()
	}
	obj, _ := json.Marshal(map[string]string{"error": msg})
	sw.bw.Write(obj)
	sw.bw.WriteByte('\n')
	return sw.flush()
}
