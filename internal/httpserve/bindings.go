package httpserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"

	"cqrep/internal/relation"
)

// bindings.go parses the query-request body of POST /v1/query/{view} (the
// wire format and its grammar are specified in DESIGN.md §5). The
// canonical shape is
//
//	{"bindings": {"x": 1, "z": 3}, "limit": 100}
//
// where "bindings" maps bound-variable names to int64 values (the view's
// value domain) and "limit" optionally caps the number of streamed tuples
// (0 or absent = unlimited). An empty body or empty object is a valid
// request with no bindings, for views whose head variables are all free.
//
// The parser is one hand-written pass over that grammar, and it is
// adversarial-input hardened (it is a fuzz target): it never panics,
// allocates no more than the input it was handed, and rejects unknown
// fields (names match exactly), duplicate keys, non-integer values, values
// outside int64, and trailing garbage after the request object. Where the
// grammar leaves room it reads a body as encoding/json would: a value may
// be an integer literal or a string holding one, null stands for an absent
// "bindings" or "limit", and a name is unescaped as encoding/json unescapes
// a string.

// maxBindings bounds the binding map an attacker can make us build; no
// real view has anywhere near this many bound variables.
const maxBindings = 4096

// QueryRequest is the decoded body of POST /v1/query/{view}, exported so
// the coordinator (internal/coord) can parse once and fan the same request
// out to workers.
type QueryRequest struct {
	Bindings map[string]relation.Value
	Limit    int // 0 = unlimited
}

// ParseBindings parses a query-request body. It accepts an empty body as
// a request with no bindings and no limit.
func ParseBindings(data []byte) (QueryRequest, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return QueryRequest{}, nil
	}
	p := bodyParser{data: data}
	req, err := p.request()
	if err != nil {
		return QueryRequest{}, fmt.Errorf("invalid query request: %w", err)
	}
	return req, nil
}

// bodyParser is the cursor of one ParseBindings pass.
type bodyParser struct {
	data []byte
	pos  int
}

// request reads the whole body: one object (or null), then nothing but
// whitespace.
func (p *bodyParser) request() (QueryRequest, error) {
	var req QueryRequest
	p.space()
	if !p.null() {
		var hasBindings, hasLimit bool
		err := p.object(func(key []byte) error {
			switch string(key) {
			case "bindings":
				if hasBindings {
					return errors.New(`duplicate key "bindings"`)
				}
				hasBindings = true
				var err error
				req.Bindings, err = p.bindings()
				return err
			case "limit":
				if hasLimit {
					return errors.New(`duplicate key "limit"`)
				}
				hasLimit = true
				return p.limit(&req.Limit)
			}
			return fmt.Errorf("unknown field %q", key)
		})
		if err != nil {
			return QueryRequest{}, err
		}
	}
	// One JSON value per body: trailing garbage means a malformed or
	// misframed request, not extra requests to silently ignore.
	if p.space(); p.pos < len(p.data) {
		return QueryRequest{}, errors.New("trailing data after request object")
	}
	return req, nil
}

// bindings reads the "bindings" value: null, or an object of distinct
// names to int64 values.
func (p *bodyParser) bindings() (map[string]relation.Value, error) {
	if p.null() {
		return nil, nil
	}
	var m map[string]relation.Value
	err := p.object(func(key []byte) error {
		if _, dup := m[string(key)]; dup {
			return fmt.Errorf("duplicate binding %q", key)
		}
		if len(m) == maxBindings {
			return fmt.Errorf("more than %d bindings", maxBindings)
		}
		tok, err := p.number()
		if err != nil {
			return err
		}
		v, ok := parseInt64(tok)
		if !ok {
			return fmt.Errorf("binding %q: value %q is not an int64", key, tok)
		}
		if m == nil {
			m = make(map[string]relation.Value)
		}
		m[string(key)] = relation.Value(v)
		return nil
	})
	return m, err
}

// limit reads the "limit" value: null, or an integer in [0, 2^31). The
// upper bound keeps the value inside int on every platform (32-bit
// included), so the int conversion cannot truncate or wrap it.
func (p *bodyParser) limit(dst *int) error {
	if p.null() {
		return nil
	}
	tok, err := p.number()
	if err != nil {
		return err
	}
	n, ok := parseInt64(tok)
	if !ok || n < 0 || n > 1<<31-1 {
		return fmt.Errorf("limit %q is not a non-negative integer below 2^31", tok)
	}
	*dst = int(n)
	return nil
}

// object reads one object, calling member with each key (borrowed: valid
// until member returns) with the cursor on that key's value, which member
// must consume.
func (p *bodyParser) object(member func(key []byte) error) error {
	if !p.take('{') {
		return p.unexpected("an object")
	}
	p.space()
	if p.take('}') {
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		if p.space(); !p.take(':') {
			return p.unexpected(`":"`)
		}
		p.space()
		if err := member(key); err != nil {
			return err
		}
		p.space()
		if p.take('}') {
			return nil
		}
		if !p.take(',') {
			return p.unexpected(`"," or "}"`)
		}
		p.space()
	}
}

// number reads a number, or a string holding one as encoding/json's
// json.Number accepts it, and returns the number's text.
func (p *bodyParser) number() ([]byte, error) {
	if p.pos < len(p.data) && p.data[p.pos] == '"' {
		tok, err := p.str()
		if err != nil {
			return nil, err
		}
		if end, ok := scanNumber(tok, 0); !ok || end != len(tok) {
			return nil, fmt.Errorf("string %q is not a number", tok)
		}
		return tok, nil
	}
	end, ok := scanNumber(p.data, p.pos)
	if !ok {
		return nil, p.unexpected("a number")
	}
	tok := p.data[p.pos:end]
	p.pos = end
	return tok, nil
}

// str reads one string and returns its contents, borrowed from the body
// unless it had to be unescaped. An escaped or not-valid-UTF-8 string is
// unescaped by encoding/json itself, so a name means what it means there.
func (p *bodyParser) str() ([]byte, error) {
	if !p.take('"') {
		return nil, p.unexpected("a string")
	}
	start, plain := p.pos, true
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			s := p.data[start:p.pos]
			p.pos++
			if plain && utf8.Valid(s) {
				return s, nil
			}
			var out string
			if err := json.Unmarshal(p.data[start-1:p.pos], &out); err != nil {
				return nil, err
			}
			return []byte(out), nil
		case c == '\\':
			plain = false
			p.pos += 2
		case c < 0x20:
			return nil, fmt.Errorf("control character %q in string", c)
		default:
			p.pos++
		}
	}
	return nil, errors.New("unterminated string")
}

// null consumes a null literal if one is next.
func (p *bodyParser) null() bool {
	if bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += 4
		return true
	}
	return false
}

func (p *bodyParser) take(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (p *bodyParser) space() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *bodyParser) unexpected(want string) error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.data[p.pos], p.pos, want)
}

// scanNumber matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at b[i:] and returns
// where it ends.
func scanNumber(b []byte, i int) (end int, ok bool) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return i, false
		}
	}
	return i, true
}

// parseInt64 reads a JSON number as an int64: false for a fraction, an
// exponent, or a magnitude outside int64.
func parseInt64(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var u uint64
	for _, c := range tok {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, false
		}
		if u = u*10 + uint64(c-'0'); u > 1<<63 {
			return 0, false
		}
	}
	switch {
	case neg:
		return -int64(u), true // u == 1<<63 wraps to the minimum, as it should
	case u > 1<<63-1:
		return 0, false
	}
	return int64(u), true
}
