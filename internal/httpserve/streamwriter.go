package httpserve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"cqrep/internal/core"
	"cqrep/internal/relation"
)

// streamwriter.go is the one server-side stream encoder and the one
// delivery loop. A node's handler runs Deliver over its representation's
// tuple blocks; the coordinator (internal/coord) runs it over the merged
// rows of its worker streams, still in the binary framing's encoding, which
// a binary client gets byte for byte and an NDJSON client as decoded lines.
// The delivery discipline lives here and nowhere else, so a stream relayed
// through the coordinator is byte-identical to one served directly by
// construction.
//
// Frames and socket flushes are separate decisions. StreamWriter closes a
// frame where the 1-then-FlushBatch ramp says (the first tuple alone, then
// every FlushBatch, in both encodings), so the bytes never depend on how a
// source blocks its answers. Closed frames collect in a buffer that
// Deliver pushes to the socket only before asking for a block that may
// wait (core.Ready): a computed structure ships each frame before the next
// is computed, a materialized bucket leaves in 32 KiB writes. The tail of
// a stream that ran to its end is not pushed: End stages it and the
// terminal in the ResponseWriter, and net/http sends them with the end of
// the response when the handler returns.

// StreamWriter writes one result stream to an http.ResponseWriter in a
// negotiated Format, and owns the framing: the first tuple closes a frame
// alone (batching never defers first-answer delay), steady state closes a
// frame per batch, and every stream ends with an explicit terminal: End,
// Error, or (NDJSON) clean EOF. Nothing is committed to the wire before
// the first tuple, so a caller whose upstream fails before producing
// anything (Wrote() == 0) can still answer with a real error status
// instead.
type StreamWriter struct {
	flusher http.Flusher
	bw      *bufio.Writer
	enc     *binaryWriter  // binary only; nil means NDJSON
	line    []byte         // ndjson scratch
	row     relation.Tuple // ndjson scratch for a decoded encoded row
	batch   int
	limit   int // current frame size (1-then-batch ramp)
	pending int // tuples in the frame still filling
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
		sw.bw = writeBufs.Get().(*bufio.Writer)
		sw.bw.Reset(w)
		sw.enc = newBinaryWriter(sw.bw)
		sw.enc.Header(arity)
	} else {
		sw.bw = bufio.NewWriterSize(w, 4096)
	}
	return sw
}

// writeBufs recycles binary streams' write buffers: a server opens one per
// request, and a stream's buffer is free again once its handler is done.
var writeBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, streamBufSize) }}

// release gives a binary stream's write buffer back for reuse, dropping
// whatever it still stages. The writer writes nothing more.
func (sw *StreamWriter) release() {
	if sw.enc == nil || sw.bw == nil {
		return
	}
	sw.bw.Reset(nil)
	writeBufs.Put(sw.bw)
	sw.bw = nil
}

// Wrote reports how many tuples have been staged or sent. A caller seeing
// an upstream failure at Wrote()==0 still owns the status line and should
// answer with a real HTTP error instead of Error.
func (sw *StreamWriter) Wrote() int { return sw.wrote }

// flush pushes every closed frame to the client — never a binary frame
// still filling, whose boundary belongs to the ramp (NDJSON lines carry no
// boundary, so they leave as written). Before the first tuple it does
// nothing, so the staged header cannot commit the status line.
func (sw *StreamWriter) flush() error {
	if sw.wrote == 0 {
		return nil
	}
	return sw.push()
}

func (sw *StreamWriter) push() error {
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
	sw.pending++
	if sw.enc != nil {
		sw.enc.Add(t)
	} else if err := sw.writeLine(t); err != nil {
		return err
	}
	return sw.closeIfFull()
}

// Room reports how many tuples the current frame still takes: 1 on a fresh
// stream and FlushBatch from then on, less whatever is already pending. A
// producer that can enumerate in blocks asks its source for this many and
// hands them to Block, which keeps every frame boundary where
// tuple-at-a-time delivery would have put it.
func (sw *StreamWriter) Room() int { return sw.limit - sw.pending }

// Block stages a run of tuples — borrowed: they are encoded before Block
// returns and not retained — with Tuple's error contract.
func (sw *StreamWriter) Block(ts []relation.Tuple) error {
	sw.wrote += len(ts)
	sw.pending += len(ts)
	if sw.enc != nil {
		sw.enc.AddBlock(ts)
	} else {
		for _, t := range ts {
			if err := sw.writeLine(t); err != nil {
				return err
			}
		}
	}
	return sw.closeIfFull()
}

// Rows stages a run of encoded rows — borrowed, as Block's tuples are —
// with Tuple's error contract. The binary encoding appends their bytes as
// they are; NDJSON decodes each into one scratch tuple for its line.
func (sw *StreamWriter) Rows(r relation.Rows) error {
	sw.wrote += r.N
	sw.pending += r.N
	if sw.enc != nil {
		sw.enc.AddRows(r)
	} else {
		if len(sw.row) != r.Arity {
			sw.row = make(relation.Tuple, r.Arity)
		}
		for i := range r.N {
			if err := sw.writeLine(r.DecodeRow(i, sw.row)); err != nil {
				return err
			}
		}
	}
	return sw.closeIfFull()
}

func (sw *StreamWriter) writeLine(t relation.Tuple) error {
	sw.line = appendTupleJSON(sw.line[:0], t)
	_, err := sw.bw.Write(sw.line)
	return err
}

// closeIfFull is the 1-then-batch ramp: the pending frame closes once it
// holds limit tuples, and the first close raises limit to the batch. A
// binary frame closes into the buffer; an NDJSON frame is its lines.
func (sw *StreamWriter) closeIfFull() error {
	if sw.pending < sw.limit {
		return nil
	}
	sw.pending, sw.limit = 0, sw.batch
	if sw.enc != nil {
		return sw.enc.Flush()
	}
	return nil
}

// End terminates a complete stream: pending tuples, then the binary end
// frame (NDJSON completeness is the clean EOF). It hands everything to the
// ResponseWriter without flushing it: returning from the handler sends the
// rest of the stream and the end of the response together. A caller with
// work to do before it returns pushes first (Deliver does, for a stream
// its limit cut).
func (sw *StreamWriter) End() error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
		if err := sw.enc.End(); err != nil {
			return err
		}
	}
	return sw.bw.Flush()
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
		return sw.push()
	}
	obj, _ := json.Marshal(map[string]string{"error": msg})
	sw.bw.Write(obj)
	sw.bw.WriteByte('\n')
	return sw.push()
}

// Disposition is how one started stream ended. Complete includes a stream
// its own limit cut short (the client got what it asked for); errored
// means the terminal error reached the client, or — with nothing streamed
// yet — is the caller's to answer as a real HTTP error; aborted means the
// client went away or the request's context cut the stream, so the client
// saw no clean terminal and counting it as served would hide that.
type Disposition int

const (
	StreamComplete Disposition = iota
	StreamErrored
	StreamAborted
)

// Source is one opened result stream, in one of two forms: the tuple
// blocks of a node's representation, or the encoded rows of the
// coordinator's merged worker streams. Exactly one is set.
type Source struct {
	Blocks core.BlockIterator
	Rows   core.RowIterator
}

// stream is the form s holds, for core.Ready and core.IterErr.
func (s Source) stream() any {
	if s.Rows != nil {
		return s.Rows
	}
	return s.Blocks
}

// stage asks s for up to want answers — a block of tuples or a run of
// rows, whichever s holds — and stages them into sw, reporting how many;
// none means s has ended.
func (s Source) stage(sw *StreamWriter, want int) (int, error) {
	if s.Rows != nil {
		if rows := s.Rows.NextRows(want); rows.N > 0 {
			return rows.N, sw.Rows(rows)
		}
		return 0, nil
	}
	if blk := s.Blocks.NextBlock(want); len(blk) > 0 {
		return len(blk), sw.Block(blk)
	}
	return 0, nil
}

// Deliver runs one request's source into sw and terminates the stream.
// Each round asks sw how many tuples its current frame takes (Room, capped
// by limit), asks the source for that many and stages them; before a read
// that may wait it pushes the closed frames to the client. A source that
// ran to its end is not pushed again: End leaves the tail and the
// terminal for the handler's return. first, when non-nil, runs once, as
// the first tuples are staged.
//
// Only an enumeration that genuinely finished, or that the limit cut,
// earns the clean terminal. A source error or a cut by ctx ends in the
// error terminal — an abort ending in plain EOF would be indistinguishable
// from a complete NDJSON result, and an end frame after one would forge
// completion in binary — and a cut is StreamAborted. A source error before
// the first tuple writes nothing: Deliver returns StreamErrored and the
// error with sw.Wrote() == 0, and the caller answers with its own status.
func Deliver(ctx context.Context, sw *StreamWriter, src Source, limit int, first func()) (Disposition, error) {
	stream := src.stream()
	exhausted, limited := false, false
	for !limited && ctx.Err() == nil {
		want := sw.Room()
		if limit > 0 {
			want = min(want, limit-sw.Wrote())
		}
		if !core.Ready(stream) {
			if err := sw.flush(); err != nil {
				return StreamAborted, err
			}
		}
		fresh := sw.Wrote() == 0
		n, err := src.stage(sw, want)
		if n == 0 {
			exhausted = true
			break
		}
		if fresh && first != nil {
			first()
		}
		if err != nil {
			return StreamAborted, err // client went away: abandon the enumeration
		}
		limited = limit > 0 && sw.Wrote() >= limit
	}
	var terr error
	switch {
	case limited:
	case exhausted:
		terr = core.IterErr(stream)
	default:
		terr = ctx.Err() // cut between blocks
	}
	switch {
	case terr == nil:
		err := sw.End()
		if err == nil && limited {
			// The stream stops short of its source, whose cleanup (the
			// coordinator closing worker streams) runs before the handler
			// returns: the client gets the whole stream first.
			err = sw.push()
		}
		if err != nil {
			return StreamAborted, err
		}
		return StreamComplete, nil
	case ctx.Err() != nil:
		sw.Error(terr.Error())
		return StreamAborted, terr
	case sw.Wrote() > 0:
		sw.Error(terr.Error())
	}
	return StreamErrored, terr
}
