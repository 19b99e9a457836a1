package wire

import (
	"encoding/json"
	"math"
	"strconv"
)

// codec is a connection's hand-written coder for the two messages that
// carry almost all traffic: a request, and a response with only answers and
// stats. One walk per message serves both directions, so the decoder takes
// exactly the shape the encoder writes: json.Encoder's bytes in its key
// order with its omitempty, known op and kind names, strict JSON numbers
// that strconv parses as encoding/json does, and a newline right after the
// closing brace. Every other message and line goes to encoding/json, so
// every accept, reject and error text stays encoding/json's. Buffers are reused across messages; decoded lists
// are copied out at their length.
type codec struct {
	dec     bool   // decoding b, not encoding into buf
	bad     bool   // the message is outside the hand-coded shape
	buf     []byte // the line being encoded
	b       []byte // the line being decoded
	i       int    // the decoder's position in b
	floats  []float64
	specs   []QuerySpec
	answers []Answer
	lists   [][]Answer
}

// encodeRequest and encodeResponse return a message's line, newline
// included, valid until the codec's next message.
func (c *codec) encodeRequest(req *Request) ([]byte, error) {
	c.dec, c.buf = false, c.buf[:0]
	if c.request(req); c.bad {
		return marshal(*req)
	}
	return c.buf, nil
}

func (c *codec) encodeResponse(resp *Response) ([]byte, error) {
	c.dec, c.buf = false, c.buf[:0]
	if c.response(resp); c.bad {
		return marshal(*resp)
	}
	return c.buf, nil
}

// marshal encodes a message outside the hand-coded shape as json.Encoder
// does.
func marshal(msg any) ([]byte, error) {
	b, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (c *codec) decodeRequest(line []byte) (Request, error) {
	var req Request
	if c.dec, c.b, c.i = true, line, 0; c.request(&req) {
		return req, nil
	}
	var slow Request
	err := json.Unmarshal(line, &slow)
	return slow, err
}

func (c *codec) decodeResponse(line []byte) (Response, error) {
	var resp Response
	if c.dec, c.b, c.i = true, line, 0; c.response(&resp) {
		return resp, nil
	}
	var slow Response
	err := json.Unmarshal(line, &slow)
	return slow, err
}

// request walks a request; decoding, it reports whether the line was one.
func (c *codec) request(r *Request) bool {
	c.bad = false
	c.tok(`{"op":`)
	c.str((*string)(&r.Op), `"query"`, `"multi"`, `"multi_all"`, `"stats"`, `"ping"`, `"explain"`)
	if c.opt(`,"queries":`, len(r.Queries) > 0) {
		list(c, &r.Queries, &c.specs, c.spec)
	}
	c.field(`,"deadline_ms":`, &r.DeadlineMs, r.DeadlineMs != 0)
	c.tok("}\n")
	return c.dec && !c.bad && c.i == len(c.b)
}

func (c *codec) spec(q *QuerySpec) {
	c.tok(`{"id":`)
	c.u64(&q.ID)
	c.tok(`,"vector":`)
	list(c, &q.Vector, &c.floats, c.f64)
	c.tok(`,"kind":`)
	c.str(&q.Kind, `"knn"`, `"range"`, `"bounded-knn"`)
	if c.opt(`,"range":`, q.Range != 0) {
		c.f64(&q.Range)
	}
	if c.opt(`,"k":`, q.K != 0) {
		integer(c, &q.K, strconv.IntSize)
	}
	c.tok("}")
}

// response walks a response; decoding, it reports whether the line was one.
func (c *codec) response(r *Response) bool {
	// Profiles and errors are encoding/json's to write.
	c.bad = r.Explain != nil || r.Err != "" || r.Code != "" || r.RetryAfterMs != 0
	c.tok("{")
	if c.opt(`"answers":`, len(r.Answers) > 0) {
		list(c, &r.Answers, &c.lists, func(l *[]Answer) { list(c, l, &c.answers, c.answer) })
		c.tok(",")
	}
	s := &r.Stats
	c.tok(`"stats":{"queries":`)
	integer(c, &s.Queries, 64)
	c.field(`,"pages_read":`, &s.PagesRead, true)
	c.field(`,"dist_calcs":`, &s.DistCalcs, true)
	c.field(`,"matrix_dist_calcs":`, &s.MatrixDistCalcs, true)
	c.field(`,"avoid_tries":`, &s.AvoidTries, true)
	c.field(`,"avoided":`, &s.Avoided, true)
	c.field(`,"partial_abandoned":`, &s.PartialAbandoned, true)
	c.field(`,"pivot_dist_calcs":`, &s.PivotDistCalcs, s.PivotDistCalcs != 0)
	c.tok(`,"coverage":`)
	c.f64(&s.Coverage)
	if c.opt(`,"batch_width":`, s.BatchWidth != 0) {
		integer(c, &s.BatchWidth, strconv.IntSize)
	}
	c.field(`,"service_us":`, &s.ServiceUs, s.ServiceUs != 0)
	c.tok("}}\n")
	return c.dec && !c.bad && c.i == len(c.b)
}

func (c *codec) answer(a *Answer) {
	c.tok(`{"id":`)
	c.u64(&a.ID)
	c.tok(`,"dist":`)
	c.f64(&a.Dist)
	c.tok("}")
}

// list walks the list *s: encoding, its elements (a nil list, which
// json.Encoder writes as null, is outside the shape); decoding, the line's,
// gathered in scratch and copied out at their count (so `[]` stays
// non-nil, as json.Unmarshal leaves it).
func list[T any](c *codec, s *[]T, scratch *[]T, elem func(*T)) {
	c.bad = c.bad || !c.dec && *s == nil
	c.tok("[")
	*scratch = (*scratch)[:0]
	for i := 0; c.dec && !c.bad && !c.char(']') || !c.dec && i < len(*s); i++ {
		if !c.dec {
			if i > 0 {
				c.tok(",")
			}
			elem(&(*s)[i])
			continue
		}
		c.bad = c.bad || i > 0 && !c.char(',')
		var zero T
		*scratch = append(*scratch, zero)
		elem(&(*scratch)[i])
	}
	if !c.dec {
		c.tok("]")
		return
	}
	*s = append(make([]T, 0, len(*scratch)), *scratch...)
}

// opt walks the key of an omitempty member, or all of a member whose value
// is literal: encoding, it writes key if present; decoding, it consumes
// key if the line goes on with it, and reports whether it did.
func (c *codec) opt(key string, present bool) bool {
	if !c.dec {
		if present {
			c.buf = append(c.buf, key...)
		}
		return present
	}
	if len(c.b)-c.i >= len(key) && string(c.b[c.i:c.i+len(key)]) == key {
		c.i += len(key)
		return true
	}
	return false
}

// char consumes ch if the line goes on with it.
func (c *codec) char(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// tok walks literal text the message must have.
func (c *codec) tok(s string) {
	if !c.opt(s, true) {
		c.bad = true
	}
}

// field walks an int64 member (see opt).
func (c *codec) field(key string, p *int64, present bool) {
	if c.opt(key, present) {
		integer(c, p, 64)
	}
}

// str walks a string: encoding, one json.Encoder writes as it is, without
// escapes (HTML escaping on, as json.Marshal has it); decoding, one of
// known, given quoted.
func (c *codec) str(p *string, known ...string) {
	if c.dec {
		for _, k := range known {
			if c.opt(k, false) {
				*p = k[1 : len(k)-1]
				return
			}
		}
		c.bad = true
		return
	}
	for i := 0; i < len(*p); i++ {
		ch := (*p)[i]
		c.bad = c.bad || ch < 0x20 || ch >= 0x7f || ch == '"' || ch == '\\' || ch == '<' || ch == '>' || ch == '&'
	}
	c.buf = append(append(append(c.buf, '"'), *p...), '"')
}

// integer walks the integer of bits bits p points to.
func integer[I int | int64](c *codec, p *I, bits int) {
	if !c.dec {
		c.buf = strconv.AppendInt(c.buf, int64(*p), 10)
		return
	}
	v, err := strconv.ParseInt(string(c.number()), 10, bits)
	*p, c.bad = I(v), c.bad || err != nil
}

func (c *codec) u64(p *uint64) {
	if !c.dec {
		c.buf = strconv.AppendUint(c.buf, *p, 10)
		return
	}
	v, err := strconv.ParseUint(string(c.number()), 10, 64)
	*p, c.bad = v, c.bad || err != nil
}

// f64 walks the float p points to, written as encoding/json writes it: 'f'
// format, 'e' below 1e-6 and from 1e21 on, a one-digit negative exponent
// without its leading zero. A non-finite float is json.Marshal's error.
func (c *codec) f64(p *float64) {
	if c.dec {
		f, err := strconv.ParseFloat(string(c.number()), 64)
		*p, c.bad = f, c.bad || err != nil
		return
	}
	f, format := *p, byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	c.bad = c.bad || math.IsInf(f, 0) || math.IsNaN(f)
	b := strconv.AppendFloat(c.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	c.buf = b
}

// number returns the number at the decoder's position, marking the line
// bad unless it follows JSON's grammar, which is stricter than strconv's.
func (c *codec) number() []byte {
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	ok := j > i && (b[i] != '0' || j == i+1) // no leading zero
	if j < len(b) && b[j] == '.' {
		i, j = j+1, digits(b, j+1)
		ok = ok && j > i
	}
	if j < len(b) && b[j]|0x20 == 'e' {
		i = j + 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j = digits(b, i)
		ok = ok && j > i
	}
	c.bad = c.bad || !ok
	n := b[c.i:j]
	c.i = j
	return n
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}
