// Package jsonwrite appends JSON text as encoding/json writes it, for
// the encoders that build a response straight from the value it
// describes: a string quoted and escaped HTML-safe, a float in the
// shortest form that round-trips, a time as RFC 3339 with nanoseconds,
// a list of integers.
package jsonwrite

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// Ints appends a JSON array of integers, null for a nil slice.
func Ints[T ~int](b []byte, ids []T) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// String appends s as a JSON string. Printable ASCII that neither
// JSON nor encoding/json's HTML-safe default escapes is copied; a string
// with anything else in it is encoding/json's to quote.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Float appends a finite f as encoding/json does: shortest
// round-trip digits, exponent form only below 1e-6 or from 1e21, and
// then with a one-digit exponent unpadded (1e-7, not 1e-07).
func Float(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// Time appends t as time.Time marshals: quoted RFC 3339 with
// nanoseconds, trailing zeros dropped.
func Time(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}
