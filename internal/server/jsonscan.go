package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// Replay reads each record payload in one pass: walkObject validates the
// payload's top-level JSON object and hands each member's value to the
// caller undecoded, and decodeString and decodeInt turn a scalar value into
// the Go value encoding/json would (for a time, encoding/json calls the
// time's own UnmarshalJSON, and so does replay). Unlike struct decoding,
// keys match exactly, never case-insensitively; the server writes every
// key in its own spelling. FuzzPayloadReader checks the reader and the
// decoders against encoding/json.

// maxJSONDepth is encoding/json's nesting limit: json.Valid rejects a
// value nested deeper.
const maxJSONDepth = 10000

var (
	errNotObject = errors.New("payload is not a JSON object")
	errNotString = errors.New("value is not a JSON string")
	errNotInt    = errors.New("value is not a JSON integer")
)

// walkObject walks data, which must be one JSON object with optional
// surrounding whitespace, and calls fn with each member's key and value
// extent, in order, duplicates included. data is valid exactly when
// json.Valid accepts it. The key aliases data unless it holds an escape or
// a non-ASCII byte, in which case it is unquoted as encoding/json unquotes
// it; the value is the member's bytes without surrounding whitespace. An
// error from fn ends the walk.
func walkObject(data []byte, fn func(key, val []byte) error) error {
	p := jsonScan{b: data}
	p.space()
	if p.i == len(p.b) || p.b[p.i] != '{' {
		return errNotObject
	}
	if p.container(1, fn); p.err == nil {
		if p.space(); p.i != len(p.b) {
			p.fail()
		}
	}
	return p.err
}

// jsonScan is walkObject's cursor: b[i:] is still to be read, and err is
// the first error.
type jsonScan struct {
	b   []byte
	i   int
	err error
}

// fail records a syntax error at the cursor and reports false.
func (p *jsonScan) fail() bool {
	if p.err == nil {
		p.err = fmt.Errorf("invalid JSON at offset %d", p.i)
	}
	return false
}

func (p *jsonScan) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// value skips one JSON value inside depth enclosing containers, and
// reports whether it was valid.
func (p *jsonScan) value(depth int) bool {
	if p.i == len(p.b) {
		return p.fail()
	}
	ok := false
	switch c := p.b[p.i]; {
	case c == '"':
		_, ok = p.str()
	case c == '{' || c == '[':
		return p.container(depth+1, nil)
	case c == '-' || c >= '0' && c <= '9':
		ok = p.number()
	case c == 't':
		ok = p.literal("true")
	case c == 'f':
		ok = p.literal("false")
	case c == 'n':
		ok = p.literal("null")
	}
	return ok || p.fail()
}

// container skips the object or array that opens at p.i, itself at depth,
// and hands each member of an object to member unless it is nil.
func (p *jsonScan) container(depth int, member func(key, val []byte) error) bool {
	if depth > maxJSONDepth {
		return p.fail()
	}
	closer := byte(']')
	object := p.b[p.i] == '{'
	if object {
		closer = '}'
	}
	p.i++
	p.space()
	if p.i < len(p.b) && p.b[p.i] == closer {
		p.i++
		return true
	}
	for {
		var key []byte
		if object {
			start := p.i
			if p.i == len(p.b) || p.b[p.i] != '"' {
				return p.fail()
			}
			plain, ok := p.str()
			if !ok {
				return p.fail()
			}
			if key = p.b[start+1 : p.i-1]; member != nil && !plain {
				var s string
				if p.err = json.Unmarshal(p.b[start:p.i], &s); p.err != nil {
					return false
				}
				key = []byte(s)
			}
			if p.space(); p.i == len(p.b) || p.b[p.i] != ':' {
				return p.fail()
			}
			p.i++
			p.space()
		}
		start := p.i
		if !p.value(depth) {
			return false
		}
		if object && member != nil {
			if p.err = member(key, p.b[start:p.i]); p.err != nil {
				return false
			}
		}
		if p.space(); p.i == len(p.b) {
			return p.fail()
		}
		switch p.b[p.i] {
		case ',':
			p.i++
			p.space()
		case closer:
			p.i++
			return true
		default:
			return p.fail()
		}
	}
}

// str skips the string that opens at p.i. plain reports that it holds
// neither an escape nor a non-ASCII byte, so its bytes are its value.
func (p *jsonScan) str() (plain, ok bool) {
	b, i := p.b, p.i+1
	plain = true
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return plain, true
		case c == '\\':
			plain = false
			if i+1 == len(b) {
				return false, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) {
					return false, false
				}
				for _, h := range b[i+2 : i+6] {
					if !(h >= '0' && h <= '9' || h >= 'a' && h <= 'f' || h >= 'A' && h <= 'F') {
						return false, false
					}
				}
				i += 6
			default:
				return false, false
			}
		case c < 0x20:
			return false, false
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	return false, false
}

// number skips -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (p *jsonScan) number() bool {
	if p.b[p.i] == '-' {
		p.i++
	}
	if p.i == len(p.b) {
		return false
	}
	if p.b[p.i] == '0' {
		p.i++
	} else if !p.digits() {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return false
		}
	}
	return true
}

// digits skips [0-9]+.
func (p *jsonScan) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

func (p *jsonScan) literal(lit string) bool {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	return true
}

// The decoders take one value extent from walkObject and store it as
// encoding/json stores that value in a struct field of the target's type:
// null leaves the target unchanged, and a value of another JSON type is an
// error.

// decodeString stores a JSON string.
func decodeString(val []byte, s *string) error {
	switch {
	case string(val) == "null":
		return nil
	case len(val) == 0 || val[0] != '"':
		return errNotString
	}
	p := jsonScan{b: val}
	if plain, _ := p.str(); plain {
		*s = string(val[1 : len(val)-1])
		return nil
	}
	// Unquote into a local, so that s does not escape to the heap.
	var u string
	if err := json.Unmarshal(val, &u); err != nil {
		return err
	}
	*s = u
	return nil
}

// decodeInt stores a JSON number that is an integer in int's range, parsed
// as encoding/json parses it.
func decodeInt(val []byte, n *int) error {
	if string(val) == "null" {
		return nil
	}
	i, err := strconv.ParseInt(string(val), 10, 0)
	if err != nil {
		return errNotInt
	}
	*n = int(i)
	return nil
}
