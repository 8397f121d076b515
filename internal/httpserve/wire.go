package httpserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"cqrep/internal/relation"
)

// wire.go implements the binary result framing of POST /v1/query/{view} —
// the Accept-negotiated alternative to NDJSON (DESIGN.md §5). A binary
// stream is
//
//	header:      magic "CQB1" | arity uvarint
//	data frame:  0x01 | byteLen uvarint | count uvarint | count×arity
//	             values, 8-byte big-endian each (Tuple.AppendEncode)
//	end frame:   0x00
//	error frame: 0x02 | msgLen uvarint | message (UTF-8)
//
// Tuples appear in enumeration order, exactly as the NDJSON stream would
// carry them. Every complete stream ends with an end frame or an error
// frame; a reader that hits EOF first has a truncated stream and must say
// so — the explicit terminal frame is what distinguishes "all results
// delivered" from "connection died", mirroring core.IterErr. The error
// frame is the binary twin of the NDJSON terminal {"error": ...} object.
//
// Framing exists so the server can flush once per batch instead of once
// per tuple: values inside a frame are contiguous, and the first frame of
// a stream carries a single tuple so batching never defers the
// time-to-first-answer delay the paper's guarantees are about.

// BinaryMediaType is the negotiated content type of the binary framing.
const BinaryMediaType = "application/x-cqrep-binary"

// NDJSONMediaType is the default stream content type.
const NDJSONMediaType = "application/x-ndjson"

// binaryMagic leads every binary stream; it doubles as a version tag (the
// "1") so a future layout can negotiate a different magic.
const binaryMagic = "CQB1"

// Frame kind bytes.
const (
	frameEnd  = 0x00
	frameData = 0x01
	frameErr  = 0x02
)

// Reader-side sanity bounds: a data frame larger than maxFrameBytes or an
// error message larger than maxErrBytes is corruption, not data — reject
// before sizing an allocation from attacker-controlled lengths.
const (
	maxFrameBytes = 1 << 26 // 64 MiB
	maxErrBytes   = 1 << 16
	maxWireArity  = 1 << 16
)

// NegotiateFormat picks the result encoding from an Accept header as a
// comma-separated list of media ranges with optional q-values (RFC 9110
// §12.5.1, restricted to what matters here). The binary framing is chosen
// iff some element names its exact media type with q > 0 AND that q is at
// least the best q offered for NDJSON — wildcards (*/*, application/*)
// count toward NDJSON, never select binary, so a generic client keeps
// getting the universally consumable default. On a tie between the two
// explicit types, binary wins: a client that spells out the binary media
// type is one that can decode it. There is no 406 — the stream formats
// carry identical information and NDJSON is the universal fallback.
func NegotiateFormat(accept string) Format {
	var qBinary, qNDJSON float64
	for _, part := range strings.Split(accept, ",") {
		mt, params, _ := strings.Cut(part, ";")
		mt = strings.TrimSpace(mt)
		if mt == "" {
			continue
		}
		q := acceptQ(params)
		switch {
		case strings.EqualFold(mt, BinaryMediaType):
			qBinary = max(qBinary, q)
		case strings.EqualFold(mt, NDJSONMediaType),
			mt == "*/*",
			strings.EqualFold(mt, "application/*"):
			qNDJSON = max(qNDJSON, q)
		}
	}
	if qBinary > 0 && qBinary >= qNDJSON {
		return FormatBinary
	}
	return FormatNDJSON
}

// acceptQ extracts the q-value from one media range's parameter list
// (";level=1;q=0.9"). An absent or unparseable q is 1 per the RFC's
// default; values are clamped into [0, 1].
func acceptQ(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		k, v, ok := strings.Cut(p, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 1
		}
		if q < 0 {
			return 0
		}
		if q > 1 {
			return 1
		}
		return q
	}
	return 1
}

// binaryWriter accumulates tuples into one pending data frame and writes
// whole frames to w. The pending payload buffer is reused across frames,
// so steady-state encoding allocates nothing per tuple.
type binaryWriter struct {
	w       io.Writer
	count   int    // tuples in the pending frame
	payload []byte // their encoded values
	scratch []byte // frame header staging
}

func newBinaryWriter(w io.Writer) *binaryWriter { return &binaryWriter{w: w} }

// Header writes the stream header.
func (e *binaryWriter) Header(arity int) error {
	e.scratch = append(e.scratch[:0], binaryMagic...)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(arity))
	_, err := e.w.Write(e.scratch)
	return err
}

// Add stages one tuple into the pending frame.
func (e *binaryWriter) Add(t relation.Tuple) {
	e.payload = t.AppendEncode(e.payload)
	e.count++
}

// AddRows stages a run of encoded rows into the pending frame: one copy of
// their bytes.
func (e *binaryWriter) AddRows(r relation.Rows) {
	e.payload = append(e.payload, r.Data...)
	e.count += r.N
}

// AddBlock stages a run of tuples into the pending frame, growing the
// payload once for the whole run.
func (e *binaryWriter) AddBlock(ts []relation.Tuple) {
	if len(ts) == 0 {
		return
	}
	e.payload = slices.Grow(e.payload, 8*len(ts)*len(ts[0]))
	for _, t := range ts {
		e.payload = t.AppendEncode(e.payload)
	}
	e.count += len(ts)
}

// Flush writes the pending tuples as one data frame; a pending count of
// zero writes nothing.
func (e *binaryWriter) Flush() error {
	if e.count == 0 {
		return nil
	}
	e.scratch = append(e.scratch[:0], frameData)
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(e.count))
	e.scratch = binary.AppendUvarint(e.scratch, uint64(n+len(e.payload)))
	e.scratch = append(e.scratch, cnt[:n]...)
	_, err := e.w.Write(e.scratch)
	if err == nil {
		_, err = e.w.Write(e.payload)
	}
	e.count = 0
	e.payload = e.payload[:0]
	return err
}

// End terminates a complete stream.
func (e *binaryWriter) End() error {
	_, err := e.w.Write([]byte{frameEnd})
	return err
}

// Error terminates a failed stream with the terminal error frame.
func (e *binaryWriter) Error(msg string) error {
	if len(msg) > maxErrBytes {
		msg = msg[:maxErrBytes]
	}
	e.scratch = append(e.scratch[:0], frameErr)
	e.scratch = binary.AppendUvarint(e.scratch, uint64(len(msg)))
	e.scratch = append(e.scratch, msg...)
	_, err := e.w.Write(e.scratch)
	return err
}

// binaryReader decodes one binary stream. It never trusts a length field:
// frame and message sizes are bounded before allocation, data frames must
// hold exactly count×arity values, an arity-0 stream at most one empty
// tuple in all, and EOF anywhere before the terminal frame is reported as
// truncation rather than a clean end.
//
// A data frame is held as encoded rows (relation.Rows): lent straight from
// the read buffer when the frame fits it, else copied into the reader's own
// buffer. NextRows lends them as they are, valid until the next call. Next
// decodes the frame into one freshly allocated value slab and hands it out
// in arity-sized pieces: a returned tuple is the caller's
// to keep — its capacity is clipped to its length so an append cannot
// reach its neighbour — at one allocation per frame instead of one per
// tuple. A retained tuple pins its frame's slab (at most
// FlushBatch×arity×8 bytes on a server's stream).
type binaryReader struct {
	br    *bufio.Reader
	arity int
	frame relation.Rows  // the current data frame's rows
	next  int            // its next undelivered row
	slab  relation.Tuple // Next's decoded copy of frame; nil until Next reads this frame
	buf   []byte         // a frame too large for br's buffer, reused
	err   error
	done  bool
	empty bool // an arity-0 stream has carried its one empty tuple
}

// streamBufSize is the buffer a binary stream is read and written
// through, on both sides of the wire.
const streamBufSize = 32 << 10

// readBufs recycles binary streams' read buffers: a client opens one per
// request, and a stream's buffer is free again once it is closed.
var readBufs = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, streamBufSize) }}

// newBinaryReader consumes the stream header and returns the frame
// decoder, reading through a recycled buffer that release gives back.
func newBinaryReader(r io.Reader) (*binaryReader, error) {
	br := readBufs.Get().(*bufio.Reader)
	br.Reset(r)
	d := &binaryReader{br: br}
	if err := d.header(); err != nil {
		d.release()
		return nil, err
	}
	return d, nil
}

func (d *binaryReader) header() error {
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(d.br, magic[:]); err != nil {
		return fmt.Errorf("httpserve: binary stream header: %w", truncated(err))
	}
	if string(magic[:]) != binaryMagic {
		return fmt.Errorf("httpserve: binary stream has bad magic %q", magic[:])
	}
	arity, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("httpserve: binary stream arity: %w", truncated(err))
	}
	if arity > maxWireArity {
		return fmt.Errorf("httpserve: binary stream arity %d implausible", arity)
	}
	d.arity = int(arity)
	return nil
}

// release gives the read buffer back for reuse. The reader reads nothing
// more: a stream not yet at its terminal ends with an error. Tuples Next
// handed out live in their own slabs and stay valid; lent rows do not.
func (d *binaryReader) release() {
	if d.br == nil {
		return
	}
	d.br.Reset(nil)
	readBufs.Put(d.br)
	d.br, d.frame, d.next = nil, relation.Rows{}, 0
	if d.err == nil && !d.done {
		d.err = fmt.Errorf("httpserve: binary stream closed before its terminal frame")
	}
}

// Arity reports the per-tuple value count declared by the stream header.
func (d *binaryReader) Arity() int { return d.arity }

// Next returns the next tuple in stream order. After it returns false,
// Err distinguishes a complete stream (nil) from a truncated or failed
// one.
func (d *binaryReader) Next() (relation.Tuple, bool) {
	if !d.fill() {
		return nil, false
	}
	if d.slab == nil {
		d.slab = make(relation.Tuple, d.frame.N*d.arity)
		d.slab.DecodeFrom(d.frame.Data) // sized to the frame: cannot come up short
	}
	start, end := d.next*d.arity, (d.next+1)*d.arity
	d.next++
	return d.slab[start:end:end], true
}

// NextRows is the encoded, borrowed form of Next for a consumer that
// relays what it reads before reading on: up to max rows of the current
// frame, valid until the next call, then no rows at the end, after which
// Err reports the terminal exactly as for Next.
func (d *binaryReader) NextRows(max int) relation.Rows {
	if !d.fill() {
		return relation.Rows{}
	}
	n := min(max, d.frame.N-d.next)
	d.next += n
	return d.frame.Slice(d.next-n, d.next)
}

// fill reads frames until a row is pending, reporting false at the
// stream's terminal.
func (d *binaryReader) fill() bool {
	for d.next == d.frame.N {
		if d.err != nil || d.done || !d.readFrame() {
			return false
		}
	}
	return true
}

// Ready reports whether the next read can answer without waiting on the
// network: a row is pending, the stream has ended, or the reader already
// buffers the whole next frame. A lent frame has left the buffer already,
// so what is buffered starts at the next frame.
func (d *binaryReader) Ready() bool {
	if d.next < d.frame.N || d.err != nil || d.done {
		return true
	}
	b, _ := d.br.Peek(d.br.Buffered())
	if len(b) == 0 {
		return false
	}
	if b[0] != frameData && b[0] != frameErr {
		return true // the end frame, or a kind readFrame rejects unread
	}
	n, used := binary.Uvarint(b[1:])
	return used > 0 && n <= uint64(len(b)-1-used)
}

// readFrame loads the next frame, reporting whether a data frame arrived
// (an empty one loops in fill).
func (d *binaryReader) readFrame() bool {
	kind, err := d.br.ReadByte()
	if err != nil {
		d.err = fmt.Errorf("httpserve: binary stream: %w", truncated(err))
		return false
	}
	switch kind {
	case frameEnd:
		d.done = true
		return false
	case frameErr:
		n, err := binary.ReadUvarint(d.br)
		if err != nil {
			d.err = fmt.Errorf("httpserve: binary error frame: %w", truncated(err))
			return false
		}
		if n > maxErrBytes {
			d.err = fmt.Errorf("httpserve: binary error frame of %d bytes implausible", n)
			return false
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(d.br, msg); err != nil {
			d.err = fmt.Errorf("httpserve: binary error frame: %w", truncated(err))
			return false
		}
		d.done = true
		d.err = &RemoteError{Status: http.StatusOK, Message: string(msg)}
		return false
	case frameData:
		n, err := binary.ReadUvarint(d.br)
		if err != nil {
			d.err = fmt.Errorf("httpserve: binary data frame: %w", truncated(err))
			return false
		}
		if n > maxFrameBytes {
			d.err = fmt.Errorf("httpserve: binary data frame of %d bytes implausible", n)
			return false
		}
		var frame []byte
		if n <= uint64(d.br.Size()) {
			// Lend the frame from the read buffer: it stays there until
			// the next read, which comes only once its rows are delivered.
			if frame, err = d.br.Peek(int(n)); err == nil {
				d.br.Discard(len(frame)) // cannot fail: Peek buffered them
			}
		} else {
			if uint64(cap(d.buf)) < n {
				d.buf = make([]byte, n)
			}
			frame = d.buf[:n]
			_, err = io.ReadFull(d.br, frame)
		}
		if err != nil {
			d.err = fmt.Errorf("httpserve: binary data frame: %w", truncated(err))
			return false
		}
		count, used := binary.Uvarint(frame)
		if used <= 0 {
			d.err = fmt.Errorf("httpserve: binary data frame has no tuple count")
			return false
		}
		body := frame[used:]
		if d.arity > 0 {
			if count != uint64(len(body))/uint64(8*d.arity) || len(body)%(8*d.arity) != 0 {
				d.err = fmt.Errorf("httpserve: binary data frame claims %d tuples over %d value bytes", count, len(body))
				return false
			}
		} else if len(body) != 0 || count > 1 || (count == 1 && d.empty) {
			// Arity-0 tuples occupy no bytes, so no count is backed by
			// data: only the one empty tuple of an all-bound view's true
			// answer is meaningful, and any more is rejected instead of
			// synthesized.
			d.err = fmt.Errorf("httpserve: binary data frame claims %d tuples over %d value bytes for arity 0", count, len(body))
			return false
		}
		d.empty = d.empty || count == 1
		d.frame, d.next, d.slab = relation.Rows{Data: body, N: int(count), Arity: d.arity}, 0, nil
		return true
	default:
		d.err = fmt.Errorf("httpserve: unknown binary frame kind %#x", kind)
		return false
	}
}

// Err reports the stream's terminal state once Next has returned false:
// nil for a complete stream, a *RemoteError for a server-reported failure,
// any other error for truncation or corruption.
func (d *binaryReader) Err() error { return d.err }

// truncated maps the io EOF pair onto io.ErrUnexpectedEOF: in a framed
// stream any EOF before the terminal frame means truncation, including one
// that lands exactly on a frame boundary.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
