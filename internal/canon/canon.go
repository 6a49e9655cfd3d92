// Package canon is the scanner under the repository's reflection-free
// JSON decoders (sim's Result, profile's Profile). Each decoder accepts
// exactly the bytes encoding/json writes for its type and declines
// anything else, so encoding/json stays the reference: a Dec reads fixed
// key literals, integers in strconv's form, floats in encoding/json's
// formatting, and strings that encoding/json writes without escapes.
package canon

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// Dec is a canonical decoder's cursor. Once a check fails, OK stays false
// and every method returns a zero value without consuming input, so
// decoders read straight through and check Done once at the end.
type Dec struct {
	b  []byte // unread input
	ok bool
}

// NewDec returns a cursor at the start of data.
func NewDec(data []byte) Dec { return Dec{b: data, ok: true} }

// OK reports whether every check so far has passed.
func (d *Dec) OK() bool { return d.ok }

// Done reports whether every check passed and all input was consumed.
func (d *Dec) Done() bool { return d.ok && len(d.b) == 0 }

// Fail marks the input as declined.
func (d *Dec) Fail() { d.ok = false }

// Lit consumes the literal s.
func (d *Dec) Lit(s string) {
	if d.ok && len(d.b) >= len(s) && string(d.b[:len(s)]) == s {
		d.b = d.b[len(s):]
		return
	}
	d.Fail()
}

// Opt consumes the literal s if the input starts with it, and reports
// whether it did: the key of a field encoding/json may omit.
func (d *Dec) Opt(s string) bool {
	if d.ok && len(d.b) >= len(s) && string(d.b[:len(s)]) == s {
		d.b = d.b[len(s):]
		return true
	}
	return false
}

// Open consumes null and reports false, or consumes the opening byte c
// of an array or object and reports true.
func (d *Dec) Open(c byte) bool {
	if d.ok && len(d.b) >= 4 && string(d.b[:4]) == "null" {
		d.b = d.b[4:]
		return false
	}
	if d.ok && len(d.b) > 0 && d.b[0] == c {
		d.b = d.b[1:]
		return true
	}
	d.Fail()
	return false
}

// More reports whether another element follows in an array or object
// that has n elements so far, consuming the comma before it; at the
// closing byte it consumes it and reports false.
func (d *Dec) More(closing byte, n int) bool {
	if !d.ok {
		return false
	}
	if len(d.b) > 0 && d.b[0] == closing {
		d.b = d.b[1:]
		return false
	}
	if n > 0 {
		d.Lit(",")
	}
	return d.ok
}

// Uint consumes an unsigned integer in strconv.FormatUint's form: one or
// more digits, no leading zero, no sign, no fraction or exponent.
func (d *Dec) Uint() uint64 {
	if !d.ok {
		return 0
	}
	var n uint64
	i := 0
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		digit := uint64(d.b[i] - '0')
		if n > (math.MaxUint64-digit)/10 {
			d.Fail()
			return 0
		}
		n = n*10 + digit
	}
	if i == 0 || (i > 1 && d.b[0] == '0') {
		d.Fail()
		return 0
	}
	d.b = d.b[i:]
	return n
}

// Uint32 is Uint limited to 32 bits.
func (d *Dec) Uint32() uint32 {
	v := d.Uint()
	if v > math.MaxUint32 {
		d.Fail()
		return 0
	}
	return uint32(v)
}

// Int64 consumes a signed integer in strconv.FormatInt's form ("-0" is
// not one).
func (d *Dec) Int64() int64 {
	neg := d.ok && len(d.b) > 0 && d.b[0] == '-'
	if neg {
		d.b = d.b[1:]
	}
	u := d.Uint()
	switch {
	case !d.ok:
		return 0
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u != 0 && u <= 1<<63:
		return int64(-u)
	}
	d.Fail()
	return 0
}

// Int is Int64 limited to the platform's int.
func (d *Dec) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.Fail()
		return 0
	}
	return int(v)
}

// Float consumes a float64 in exactly encoding/json's formatting of it.
func (d *Dec) Float() float64 {
	if !d.ok {
		return 0
	}
	i := 0
	for ; i < len(d.b); i++ {
		if c := d.b[i]; !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
	}
	tok := d.b[:i]
	f, err := strconv.ParseFloat(string(tok), 64)
	var buf [32]byte
	if err != nil || !bytes.Equal(AppendFloat(buf[:0], f), tok) {
		d.Fail()
		return 0
	}
	d.b = d.b[i:]
	return f
}

// AppendFloat formats a finite f as encoding/json does: 'f' format
// between 1e-6 and 1e21, else 'e' format with a one-digit negative
// exponent written without its leading zero.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Str consumes a string that encoding/json writes without escapes: valid
// UTF-8 with no control byte, '"', '\\', '<', '>', '&', U+2028 or U+2029.
func (d *Dec) Str() string {
	if !d.ok || len(d.b) == 0 || d.b[0] != '"' {
		d.Fail()
		return ""
	}
	for i := 1; i < len(d.b); {
		c := d.b[i]
		if c < utf8.RuneSelf {
			if c == '"' {
				s := string(d.b[1:i])
				d.b = d.b[i+1:]
				return s
			}
			if c < 0x20 || c == '\\' || c == '<' || c == '>' || c == '&' {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(d.b[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			break
		}
		i += size
	}
	d.Fail()
	return ""
}

// IntMap consumes null or a map with int keys as encoding/json writes it:
// each key quoted in strconv.FormatInt's form, keys in strictly ascending
// byte order (so no duplicates), each value read by val.
func IntMap[V any](d *Dec, val func() V) map[int]V {
	if !d.Open('{') {
		return nil
	}
	m := make(map[int]V)
	var prev []byte
	for d.More('}', len(m)) {
		d.Lit(`"`)
		start := d.b
		k := d.Int()
		key := start[:len(start)-len(d.b)]
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			d.Fail()
		}
		prev = key
		d.Lit(`":`)
		v := val()
		if !d.ok {
			return nil
		}
		m[k] = v
	}
	return m
}
