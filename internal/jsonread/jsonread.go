// Package jsonread is the one reader of request bodies: a strict,
// one-pass JSON decoder that fills a value through the value's own
// ReadJSON method, with no reflection.
//
// It accepts exactly what encoding/json's Decoder accepts with
// DisallowUnknownFields when nothing but white space may follow the
// value, and yields the values that decode yields:
//
//   - a key names a field exactly, or else under encoding/json's case
//     folding (so "NAME", and "ſervice" with U+017F, match too);
//   - a later duplicate key reads over the earlier one's value;
//   - a null leaves a string, number or struct as it was and sets a
//     slice to nil;
//   - an array is read into the slice's backing array from length zero,
//     each element in place, and [] leaves the slice empty but not nil;
//   - a string's invalid UTF-8 and lone surrogates become U+FFFD.
//
// Its errors are worded as that decode words them: the first syntax
// error ends the read and wins; then the first error a nested value ends
// the decode with (Abort, as an Unmarshaler's error ends
// encoding/json's); then the first type error or unknown field in
// document order. An empty document is "EOF", a truncated one
// "unexpected EOF", and anything but white space after the value
// "unexpected data after JSON body".
package jsonread

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Value is a type the reader fills: ReadJSON reads the next JSON value
// from r into the receiver, through the reader's typed reads (Object,
// String, Float, Int, Slice).
type Value interface {
	ReadJSON(r *Reader)
}

// SyntaxError is a malformed document: a byte where none of its kind may
// stand, an end before the value does, or data after it.
type SyntaxError struct{ msg string }

func (e *SyntaxError) Error() string { return e.msg }

// Struct describes the Go struct an object is read into: its fields'
// JSON names, in the order Object's callback numbers them, and the type
// encoding/json's errors name.
type Struct struct {
	// Type is the struct's qualified type name ("server.BatchRequest").
	Type string
	// Fields are the JSON names, ASCII.
	Fields []string
}

// index returns the field key names: exactly, or else folded as
// encoding/json folds; -1 when none.
func (st *Struct) index(key []byte) int {
	for i, f := range st.Fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range st.Fields {
		if foldEqual(key, f) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to ASCII name's folded form:
// ASCII letters upper-cased, any other rune the least of its simple-fold
// orbit (U+017F folds to 'S', the Kelvin sign to 'K').
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		var c rune
		if b := key[i]; b < utf8.RuneSelf {
			c = rune(upper(b))
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			c = foldRune(r)
			i += n
		}
		if j == len(name) || c != rune(upper(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// foldRune returns the least rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// internSlots and maxInterned size the table of short strings a reader
// hands out again instead of allocating (NF and service names recur in
// every spec); maxPooled caps the buffers a pooled reader keeps.
const (
	internSlots = 64
	maxInterned = 24
	maxPooled   = 64 << 10
)

// Reader reads one document. Readers are pooled; Decode and
// DecodeReader are the ways to get one.
type Reader struct {
	data  []byte
	off   int
	depth int
	// bad is the first syntax error: reading stops there. stop is the
	// error a nested value ended the decode with, err the first type
	// error or unknown field.
	bad       *SyntaxError
	stop, err error
	// strct and path are the error context encoding/json words type
	// errors with: the struct whose field is being read (its qualified
	// type name), and the field names from the document's (or the nested
	// value's) top down to it.
	strct   string
	path    []string
	pathBuf [4]string
	// buf holds strings unquoted from escapes; in holds a body read by
	// DecodeReader.
	buf, in []byte
	strs    [internSlots]string
}

var readers = sync.Pool{New: func() any { return new(Reader) }}

// Decode reads data — one JSON value and nothing after it but white
// space — into v.
func Decode(data []byte, v Value) error {
	r := readers.Get().(*Reader)
	defer r.release()
	return r.decode(data, v)
}

// DecodeReader reads all of rd and decodes it as Decode does. The body
// lands in a pooled buffer; v keeps no byte of it.
func DecodeReader(rd io.Reader, v Value) error {
	r := readers.Get().(*Reader)
	defer r.release()
	for {
		r.in = slices.Grow(r.in, 512)
		n, err := rd.Read(r.in[len(r.in):cap(r.in)])
		r.in = r.in[:len(r.in)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return r.decode(r.in, v)
}

func (r *Reader) release() {
	r.data = nil
	if cap(r.in) > maxPooled || cap(r.buf) > maxPooled {
		return
	}
	r.in, r.buf = r.in[:0], r.buf[:0]
	readers.Put(r)
}

func (r *Reader) decode(data []byte, v Value) error {
	r.data, r.off, r.depth, r.bad, r.stop, r.err = data, 0, 0, nil, nil, nil
	r.strct, r.path = "", r.pathBuf[:0]
	if r.skipSpace(); r.off == len(data) {
		return &SyntaxError{msg: io.EOF.Error()}
	}
	v.ReadJSON(r)
	switch {
	case r.bad != nil:
		return r.bad
	case r.stop != nil:
		return r.stop
	case r.err != nil:
		return r.err
	}
	if r.skipSpace(); r.off < len(data) {
		return &SyntaxError{msg: "unexpected data after JSON body"}
	}
	return nil
}

// Abort ends the decode with err, as an Unmarshaler's error ends
// encoding/json's: it wins over the type errors and unknown fields met
// before it, and over everything after it but a syntax error, which the
// reader still checks for to the end.
func (r *Reader) Abort(err error) {
	if r.stop == nil {
		r.stop = err
	}
}

// Nested reads the next value the way encoding/json hands a value to an
// Unmarshaler: read fills it as a document of its own, so the error it
// meets is returned instead of kept — the caller ends the decode with
// it, or with its own, by Abort — and is worded without the enclosing
// fields. A syntax error inside still ends the whole read.
func (r *Reader) Nested(read func()) error {
	stop, err, strct, path := r.stop, r.err, r.strct, r.path
	r.stop, r.err, r.strct, r.path = nil, nil, "", r.path[len(r.path):]
	read()
	inner := r.stop
	if inner == nil {
		inner = r.err
	}
	r.stop, r.err, r.strct, r.path = stop, err, strct, path
	return inner
}

// Object reads an object into the struct st describes: field(i) reads
// the value of st's i-th field, a key naming no field is an unknown
// field. A null leaves the struct as it is; any other value is a type
// error.
func (r *Reader) Object(st *Struct, field func(i int)) {
	switch c := r.begin(); c {
	case 0:
	case '{':
		strct, depth := r.strct, len(r.path)
		r.members(func(key []byte) {
			i := st.index(key)
			if i < 0 {
				if r.err == nil {
					r.err = fmt.Errorf("json: unknown field %q", key)
				}
				r.skip()
				return
			}
			r.strct, r.path = st.Type, append(r.path, st.Fields[i])
			field(i)
			r.strct, r.path = strct, r.path[:depth]
		})
	case 'n':
		r.literal(c)
	default:
		r.mismatch(c, st.Type)
	}
}

// String reads a string into *p; a null leaves *p as it is.
func (r *Reader) String(p *string) {
	switch c := r.begin(); c {
	case 0:
	case '"':
		if s, plain, ok := r.quoted(); ok {
			if !plain {
				s = r.unquote(s)
			}
			*p = r.intern(s)
		}
	case 'n':
		r.literal(c)
	default:
		r.mismatch(c, "string")
	}
}

// Float reads a number into *p; a null leaves *p as it is.
func (r *Reader) Float(p *float64) {
	switch c := r.begin(); {
	case c == 0:
	case c == 'n':
		r.literal(c)
	case isNumberStart(c):
		if lit := r.number(); lit != nil {
			f, err := strconv.ParseFloat(transient(lit), 64)
			if err != nil {
				r.typeError("number "+string(lit), "float64")
				return
			}
			*p = f
		}
	default:
		r.mismatch(c, "float64")
	}
}

// Int reads an integer into *p, typ naming T for type errors; a null
// leaves *p as it is, and a number with a fraction or an exponent, or
// out of T's range, is a type error.
func Int[T ~int | ~int64](r *Reader, typ string, p *T) {
	switch c := r.begin(); {
	case c == 0:
	case c == 'n':
		r.literal(c)
	case isNumberStart(c):
		if lit := r.number(); lit != nil {
			n, err := strconv.ParseInt(transient(lit), 10, 64)
			if err != nil || int64(T(n)) != n {
				r.typeError("number "+string(lit), typ)
				return
			}
			*p = T(n)
		}
	default:
		r.mismatch(c, typ)
	}
}

// Slice reads an array into *s, typ naming the slice type for type
// errors: elem reads each element in place. The array is read into *s's
// backing array from length zero, so an element within the old capacity
// keeps what the array does not overwrite, as encoding/json does; a
// longer array moves them to one array of its exact length. A null sets
// *s to nil; [] leaves it empty but not nil.
func Slice[T any](r *Reader, typ string, s *[]T, elem func(*T)) {
	switch c := r.begin(); c {
	case 0:
	case '[':
		a := (*s)[:0]
		if n := r.count(); n > cap(a) {
			a = make([]T, n)
			copy(a, (*s)[:cap(*s)])
			a = a[:0]
		}
		r.elements(func() {
			if i := len(a); i < cap(a) {
				a = a[:i+1]
			} else {
				var zero T
				a = append(a, zero)
			}
			elem(&a[len(a)-1])
		})
		if len(a) == 0 {
			a = []T{}
		}
		*s = a
	case 'n':
		r.literal(c)
		*s = nil
	default:
		r.mismatch(c, typ)
	}
}

// count returns the length of the array at the reader, left where it
// was: a syntax error in the array is found again when it is read.
func (r *Reader) count() (n int) {
	off, depth := r.off, r.depth
	r.elements(func() { n++; r.skip() })
	r.off, r.depth, r.bad = off, depth, nil
	return n
}

// begin skips white space and returns the first byte of the value
// there, or 0, recording the syntax error, when no value starts there.
func (r *Reader) begin() byte {
	if r.bad != nil {
		return 0
	}
	r.skipSpace()
	if r.off == len(r.data) {
		r.eof()
		return 0
	}
	switch c := r.data[r.off]; {
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n' || isNumberStart(c):
		return c
	default:
		r.syntax(c, "looking for beginning of value")
		return 0
	}
}

// mismatch skips the value starting with c, recording the type error of
// reading it into typ.
func (r *Reader) mismatch(c byte, typ string) {
	value := "number"
	switch c {
	case '{':
		value = "object"
	case '[':
		value = "array"
	case '"':
		value = "string"
	case 't', 'f':
		value = "bool"
	}
	r.skip()
	r.typeError(value, typ)
}

func (r *Reader) typeError(value, typ string) {
	if r.err != nil || r.bad != nil {
		return
	}
	if r.strct != "" || len(r.path) > 0 {
		name := r.strct[strings.LastIndexByte(r.strct, '.')+1:]
		r.err = errors.New("json: cannot unmarshal " + value + " into Go struct field " + name + "." + strings.Join(r.path, ".") + " of type " + typ)
		return
	}
	r.err = errors.New("json: cannot unmarshal " + value + " into Go value of type " + typ)
}

// skip reads over one value, checking its syntax.
func (r *Reader) skip() {
	switch c := r.begin(); {
	case c == 0:
	case c == '{':
		r.members(func([]byte) { r.skip() })
	case c == '[':
		r.elements(r.skip)
	case c == '"':
		r.quoted()
	case c == 't' || c == 'f' || c == 'n':
		r.literal(c)
	default:
		r.number()
	}
}

// members reads the object at the reader, calling member with each
// unquoted key while the reader stands at the key's value, which member
// must read. The key is only good until member reads a string.
func (r *Reader) members(member func(key []byte)) {
	if !r.push() {
		return
	}
	if r.skipSpace(); r.off < len(r.data) && r.data[r.off] == '}' {
		r.off++
		r.depth--
		return
	}
	for {
		if r.skipSpace(); r.off == len(r.data) {
			r.eof()
			return
		}
		if c := r.data[r.off]; c != '"' {
			r.syntax(c, "looking for beginning of object key string")
			return
		}
		key, plain, ok := r.quoted()
		if !ok {
			return
		}
		if !plain {
			key = r.unquote(key)
		}
		if r.skipSpace(); r.off == len(r.data) {
			r.eof()
			return
		}
		if c := r.data[r.off]; c != ':' {
			r.syntax(c, "after object key")
			return
		}
		r.off++
		if member(key); r.bad != nil {
			return
		}
		if r.skipSpace(); r.off == len(r.data) {
			r.eof()
			return
		}
		switch c := r.data[r.off]; c {
		case ',':
			r.off++
		case '}':
			r.off++
			r.depth--
			return
		default:
			r.syntax(c, "after object key:value pair")
			return
		}
	}
}

// elements reads the array at the reader, calling elem to read each
// element.
func (r *Reader) elements(elem func()) {
	if !r.push() {
		return
	}
	if r.skipSpace(); r.off < len(r.data) && r.data[r.off] == ']' {
		r.off++
		r.depth--
		return
	}
	for {
		if elem(); r.bad != nil {
			return
		}
		if r.skipSpace(); r.off == len(r.data) {
			r.eof()
			return
		}
		switch c := r.data[r.off]; c {
		case ',':
			r.off++
		case ']':
			r.off++
			r.depth--
			return
		default:
			r.syntax(c, "after array element")
			return
		}
	}
}

// push enters the object or array whose opening byte is at the reader.
func (r *Reader) push() bool {
	c := r.data[r.off]
	r.off++
	if r.depth++; r.depth > maxDepth {
		r.syntax(c, "exceeded max depth")
		return false
	}
	return true
}

// quoted reads the string at the reader, checking its syntax, and
// returns its content as written; plain reports that the content is
// already its own unquoted form (no escape, valid UTF-8).
func (r *Reader) quoted() (s []byte, plain, ok bool) {
	d := r.data
	start := r.off + 1
	plain = true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			return d[start:i], plain, true
		case c == '\\':
			plain = false
			if i++; i == len(d) {
				break
			}
			switch d[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i++
			case 'u':
				i++
				for end := i + 4; i < end; i++ {
					if i == len(d) {
						break
					}
					if !isHex(d[i]) {
						r.syntax(d[i], `in \u hexadecimal character escape`)
						return nil, false, false
					}
				}
			default:
				r.syntax(d[i], "in string escape code")
				return nil, false, false
			}
		case c < ' ':
			r.syntax(c, "in string literal")
			return nil, false, false
		case c < utf8.RuneSelf:
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	r.eof()
	return nil, false, false
}

// unquote returns the unquoted form of s, a string's content that
// quoted checked: escapes resolved, surrogate pairs joined, invalid
// UTF-8 and lone surrogates replaced by U+FFFD. The result lives in the
// reader's buffer until the next unquote.
func (r *Reader) unquote(s []byte) []byte {
	b := r.buf[:0]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'u':
				rr := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[i:])); dec != unicode.ReplacementChar {
						i += 6
						b = utf8.AppendRune(b, dec)
						break
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default:
				b = append(b, unescape[e])
				i += 2
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.buf = b
	return b
}

// unescape maps a one-byte escape's letter to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(s[2:6]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(r)
}

// intern returns s as a string, handing out the same string for the
// same short content while it stays in the reader's table.
func (r *Reader) intern(s []byte) string {
	if len(s) > maxInterned {
		return string(s)
	}
	h := uint32(2166136261)
	for _, c := range s {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &r.strs[h%internSlots]
	if *slot == string(s) {
		return *slot
	}
	*slot = string(s)
	return *slot
}

// transient views b as a string for a call that keeps no part of it:
// strconv's parsers copy what their errors quote, so a number is parsed
// where it lies in the document.
func transient(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// number reads the number at the reader, checking its syntax, and
// returns it as written; nil after a syntax error.
func (r *Reader) number() []byte {
	d, i := r.data, r.off
	digits := func() {
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	// need checks that a digit stands at i, naming the place otherwise.
	need := func(context string) bool {
		switch {
		case i == len(d):
			r.eof()
		case !isDigit(d[i]):
			r.syntax(d[i], context)
		default:
			return true
		}
		return false
	}
	if d[i] == '-' {
		if i++; !need("in numeric literal") {
			return nil
		}
	}
	if d[i] == '0' {
		i++
	} else {
		digits()
	}
	if i < len(d) && d[i] == '.' {
		if i++; !need("after decimal point in numeric literal") {
			return nil
		}
		digits()
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !need("in exponent of numeric literal") {
			return nil
		}
		digits()
	}
	lit := d[r.off:i]
	r.off = i
	return lit
}

// literal reads the true, false or null starting with c at the reader.
func (r *Reader) literal(c byte) {
	word := "null"
	switch c {
	case 't':
		word = "true"
	case 'f':
		word = "false"
	}
	for k := 1; k < len(word); k++ {
		i := r.off + k
		if i == len(r.data) {
			r.eof()
			return
		}
		if r.data[i] != word[k] {
			r.syntax(r.data[i], "in literal "+word+" (expecting "+quoteChar(word[k])+")")
			return
		}
	}
	r.off += len(word)
}

func (r *Reader) skipSpace() {
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\t', '\r', '\n':
			r.off++
		default:
			return
		}
	}
}

// syntax records the byte c where none of its kind may stand.
func (r *Reader) syntax(c byte, context string) {
	if r.bad == nil {
		r.bad = &SyntaxError{msg: "invalid character " + quoteChar(c) + " " + context}
	}
}

// eof records the document's end inside a value.
func (r *Reader) eof() {
	if r.bad == nil {
		r.bad = &SyntaxError{msg: io.ErrUnexpectedEOF.Error()}
	}
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

func isDigit(c byte) bool       { return '0' <= c && c <= '9' }
func isNumberStart(c byte) bool { return c == '-' || isDigit(c) }
func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
