// Package canonjson writes the exact bytes json.MarshalIndent(v, "", "  ")
// writes for the shapes the repository stores as indented JSON, and scans
// that canonical shape back in one pass.
//
// The Writer is the encoder: it emits members and elements one at a time,
// each on its own line, two spaces per level, an empty object or array as
// {} or [], and strings HTML-escaped as encoding/json escapes them.
//
// The Scanner is a fast path, not a parser: it accepts only plain tokens —
// strings of printable ASCII without escapes, integers without leading
// zeros, fraction or exponent, true and false — separated by any JSON
// whitespace. Everything else sets its sticky failure flag, and the caller
// decodes the input again with encoding/json, which both decides every
// error and decodes every shape the scanner refuses.
package canonjson

import (
	"encoding/json"
	"strconv"
)

// Writer appends indented JSON to B.
type Writer struct {
	B     []byte
	depth int
	// first is set while the innermost open container has no member yet.
	// A child container opens only after a member separator of its parent,
	// so one flag serves every level.
	first bool
}

// Open starts an object ('{') or array ('[').
func (w *Writer) Open(c byte) {
	w.B = append(w.B, c)
	w.depth++
	w.first = true
}

// Close ends the innermost container with '}' or ']'.
func (w *Writer) Close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.B = append(w.B, c)
	w.first = false
}

// Key starts an object member: its separator, indentation and quoted name.
// The name must be printable ASCII that needs no escaping, as struct tags
// are.
func (w *Writer) Key(name string) {
	w.Elem()
	w.B = append(w.B, '"')
	w.B = append(w.B, name...)
	w.B = append(w.B, '"', ':', ' ')
}

// Elem starts an array element: its separator and indentation.
func (w *Writer) Elem() {
	if !w.first {
		w.B = append(w.B, ',')
	}
	w.first = false
	w.newline()
}

func (w *Writer) newline() {
	w.B = append(w.B, '\n')
	for i := 0; i < w.depth; i++ {
		w.B = append(w.B, ' ', ' ')
	}
}

// UintKey starts an object member whose name is the decimal u, as
// encoding/json names the members of a map with integer keys.
func (w *Writer) UintKey(u uint64) {
	w.Elem()
	w.B = append(w.B, '"')
	w.B = strconv.AppendUint(w.B, u, 10)
	w.B = append(w.B, '"', ':', ' ')
}

// Uint writes an unsigned integer.
func (w *Writer) Uint(u uint64) { w.B = strconv.AppendUint(w.B, u, 10) }

// Int writes a signed integer.
func (w *Writer) Int(i int64) { w.B = strconv.AppendInt(w.B, i, 10) }

// Bool writes true or false.
func (w *Writer) Bool(b bool) { w.B = strconv.AppendBool(w.B, b) }

// Null writes null, as encoding/json writes a nil slice, map or pointer.
func (w *Writer) Null() { w.B = append(w.B, "null"...) }

// String writes a quoted string. A string holding anything but printable
// ASCII outside '"', '\\', '<', '>' and '&' is written by json.Marshal,
// which escapes it exactly as MarshalIndent does.
func (w *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] || htmlSpecial(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			w.B = append(w.B, b...)
			return
		}
	}
	w.B = append(w.B, '"')
	w.B = append(w.B, s...)
	w.B = append(w.B, '"')
}

// PlainKey reports whether name is a member name Key may write: non-empty,
// and bytes json.Marshal writes unescaped.
func PlainKey(name string) bool {
	for i := 0; i < len(name); i++ {
		if !plain[name[i]] || htmlSpecial(name[i]) {
			return false
		}
	}
	return name != ""
}

func htmlSpecial(c byte) bool { return c == '<' || c == '>' || c == '&' }

// plain marks the bytes that stand for themselves inside a JSON string:
// printable ASCII except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Scanner reads the canonical shape from Data. Once a method meets a byte
// it does not accept it sets Failed, after which every method returns a
// zero value and Next returns false, so a decoding loop ends without
// checking each step.
type Scanner struct {
	Data   []byte
	Pos    int
	Failed bool
}

// Fail marks the input as outside the canonical shape.
func (s *Scanner) Fail() { s.Failed = true }

func (s *Scanner) skipSpace() {
	for s.Pos < len(s.Data) {
		switch s.Data[s.Pos] {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return
		}
	}
}

// Peek returns the next byte after whitespace, or 0 at the end.
func (s *Scanner) Peek() byte {
	s.skipSpace()
	if s.Failed || s.Pos >= len(s.Data) {
		return 0
	}
	return s.Data[s.Pos]
}

// Open consumes c, an opening '{' or '['.
func (s *Scanner) Open(c byte) {
	if s.Peek() != c {
		s.Fail()
		return
	}
	s.Pos++
}

// Next is called before each member or element of the container just
// opened, with first set on the first call. It consumes the separator and
// reports whether a member follows, or consumes the closing byte and
// reports false.
func (s *Scanner) Next(closing byte, first bool) bool {
	switch c := s.Peek(); {
	case s.Failed:
		return false
	case c == closing:
		s.Pos++
		return false
	case first:
		return true
	case c == ',':
		s.Pos++
		return true
	}
	s.Fail()
	return false
}

// Key reads a member name and its colon. The returned bytes alias Data.
func (s *Scanner) Key() []byte {
	k := s.RawString()
	if s.Peek() != ':' {
		s.Fail()
		return nil
	}
	s.Pos++
	return k
}

// Member reads the separator and name of the next object member, failing
// unless the member exists and is called name.
func (s *Scanner) Member(name string, first bool) {
	if !s.Next('}', first) || string(s.Key()) != name {
		s.Fail()
	}
}

// RawString reads a string of plain bytes and returns its contents, which
// alias Data.
func (s *Scanner) RawString() []byte {
	if s.Peek() != '"' {
		s.Fail()
		return nil
	}
	start := s.Pos + 1
	for i := start; i < len(s.Data); i++ {
		c := s.Data[i]
		if c == '"' {
			s.Pos = i + 1
			return s.Data[start:i]
		}
		if !plain[c] {
			break
		}
	}
	s.Fail()
	return nil
}

// String reads a string of plain bytes.
func (s *Scanner) String() string { return string(s.RawString()) }

// digits returns the run of decimal digits at the cursor.
func (s *Scanner) digits() []byte {
	start := s.Pos
	for s.Pos < len(s.Data) && s.Data[s.Pos] >= '0' && s.Data[s.Pos] <= '9' {
		s.Pos++
	}
	return s.Data[start:s.Pos]
}

// Uint reads an unsigned integer no greater than max.
func (s *Scanner) Uint(max uint64) uint64 {
	s.skipSpace()
	return s.magnitude(max)
}

func (s *Scanner) magnitude(max uint64) uint64 {
	if s.Failed {
		return 0
	}
	u, ok := ParseUint(s.digits(), max)
	if !ok {
		s.Fail()
	}
	return u
}

// Int reads a signed integer within [-max-1, max].
func (s *Scanner) Int(max int64) int64 {
	if s.Peek() != '-' {
		return int64(s.Uint(uint64(max)))
	}
	s.Pos++
	u := s.magnitude(uint64(max) + 1)
	if u == 0 {
		s.Fail() // -0, which encoding/json decides
	}
	return -int64(u)
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch s.Peek() {
	case 't':
		return s.literal("true")
	case 'f':
		s.literal("false")
		return false
	}
	s.Fail()
	return false
}

func (s *Scanner) literal(lit string) bool {
	if len(s.Data)-s.Pos < len(lit) || string(s.Data[s.Pos:s.Pos+len(lit)]) != lit {
		s.Fail()
		return false
	}
	s.Pos += len(lit)
	return true
}

// End checks that only whitespace follows.
func (s *Scanner) End() {
	if s.Peek() != 0 || s.Pos != len(s.Data) {
		s.Fail()
	}
}

// ParseUint parses a non-empty run of decimal digits without a leading
// zero (JSON forbids one) whose value is at most max.
func ParseUint(d []byte, max uint64) (uint64, bool) {
	if len(d) == 0 || (len(d) > 1 && d[0] == '0') {
		return 0, false
	}
	var u uint64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		digit := uint64(c - '0')
		if digit > max || u > (max-digit)/10 {
			return 0, false
		}
		u = u*10 + digit
	}
	return u, true
}
