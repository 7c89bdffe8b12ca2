package service

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the v1 wire codec of grade results. A grade result is
// mostly its per-fault detection lists, the D(f) the ADI is computed
// from, and encoding/json spends more CPU reflecting over them than
// the simulator spends computing them. The codec writes and reads the
// same bytes by hand.
//
// It is deliberately not a json.Marshaler or json.Unmarshaler:
// encoding/json re-compacts whatever a Marshaler returns and re-scans
// a value before handing it to an Unmarshaler, so as methods the codec
// would slow every other caller down. json.Marshal and json.Unmarshal
// of a JobResult behave as they always did, and they are the reference
// the codec is tested against.

// appendJobResult appends r's v1 wire encoding to b: exactly the bytes
// json.Marshal(r) produces. It fails where json.Marshal fails (a NaN or
// infinite float), with the same error text; the returned slice then
// holds a partial encoding. Only strings that need escaping and the
// small nested fault_shard and timing values go through encoding/json.
func appendJobResult(b []byte, r *JobResult) ([]byte, error) {
	var err error
	b = append(b, `{"id":`...)
	b = appendString(b, r.ID)
	if r.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendString(b, r.Kind)
	}
	b = append(b, `,"circuit":`...)
	b = appendString(b, r.Circuit)
	b = append(b, `,"fingerprint":`...)
	b = appendString(b, r.Fingerprint)
	b = append(b, `,"mode":`...)
	b = appendString(b, r.Mode)
	b = append(b, `,"faults":`...)
	b = appendInt(b, r.Faults)
	b = append(b, `,"total_faults":`...)
	b = appendInt(b, r.TotalFaults)
	if r.FaultShard != nil {
		b = append(b, `,"fault_shard":`...)
		if b, err = appendMarshal(b, r.FaultShard); err != nil {
			return b, err
		}
	}
	b = append(b, `,"vectors":`...)
	b = appendInt(b, r.Vectors)
	b = append(b, `,"vectors_used":`...)
	b = appendInt(b, r.VectorsUsed)
	b = append(b, `,"detected":`...)
	b = appendInt(b, r.Detected)
	b = append(b, `,"coverage":`...)
	if b, err = appendFloat(b, r.Coverage); err != nil {
		return b, err
	}
	b = append(b, `,"ndet":`...)
	b = appendInts(b, r.Ndet)
	b = append(b, `,"per_fault":`...)
	if r.PerFault == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.PerFault {
			fr := &r.PerFault[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"f":`...)
			b = appendInt(b, fr.F)
			b = append(b, `,"name":`...)
			b = appendString(b, fr.Name)
			b = append(b, `,"det_count":`...)
			b = appendInt(b, fr.DetCount)
			b = append(b, `,"first_det":`...)
			b = appendInt(b, fr.FirstDet)
			if len(fr.Det) > 0 {
				b = append(b, `,"det":`...)
				b = appendInts(b, fr.Det)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Timing != nil {
		b = append(b, `,"timing":`...)
		if b, err = appendMarshal(b, r.Timing); err != nil {
			return b, err
		}
	}
	if r.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, r.TraceID)
	}
	return append(b, '}'), nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied as it is; anything else
// (quote, backslash, control bytes, the HTML-sensitive <, > and &,
// non-ASCII and invalid UTF-8) is left to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f formatted as encoding/json formats a float64:
// like ES6 number-to-string, plain decimal between 1e-6 and 1e21 and an
// exponent without padding outside it.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // the error json.Marshal(r) returns
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendInts appends xs as a JSON array, or null when xs is nil.
func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, x)
	}
	return append(b, ']')
}

// appendInt is strconv.AppendInt in base 10 with a short path for the
// values below 1000 that most detection lists are made of.
func appendInt(b []byte, v int) []byte {
	switch {
	case v < 0 || v >= 1000:
		return strconv.AppendInt(b, int64(v), 10)
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, byte('0'+v/10), byte('0'+v%10))
	}
	return append(b, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
}

func appendMarshal(b []byte, v any) ([]byte, error) {
	q, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, q...), nil
}

// encodeResult encodes a finished job's result payload: a grade result
// through the codec, into a buffer allocated once (sizeHint bounds the
// encoding of any result the service builds, so it never regrows and
// no pool keeps megabytes alive between requests), the other kinds
// through encoding/json.
func encodeResult(res any) ([]byte, error) {
	if r, ok := res.(*JobResult); ok {
		return appendJobResult(make([]byte, 0, sizeHint(r)), r)
	}
	return json.Marshal(res)
}

// sizeHint is an upper bound on r's encoding when its numbers are
// those of a real result (indices below the vector and fault counts)
// and its strings need no escaping; other results only regrow.
func sizeHint(r *JobResult) int {
	vec := len(strconv.Itoa(r.Vectors)) + 1 // a vector index or count and its comma
	num := max(vec, len(strconv.Itoa(max(len(r.PerFault), r.TotalFaults)))+1)
	n := 256 + len(r.ID) + len(r.Kind) + len(r.Circuit) + len(r.Fingerprint) + len(r.Mode) + len(r.TraceID)
	n += len(r.Ndet) * num
	for i := range r.PerFault {
		fr := &r.PerFault[i]
		n += len(`{"f":,"name":"","det_count":,"first_det":,"det":[]},`) + 3*num + len(fr.Name) + len(fr.Det)*vec
	}
	return n
}

// DecodeJobResult decodes a grade result's wire bytes. It makes one
// pass over the shape the service writes (compact JSON, known keys at
// most once each, strings without escapes, integers where the fields
// are ints, no null) and hands any other input to json.Unmarshal, so
// every input decodes exactly as json.Unmarshal into a new JobResult
// decodes it: to a reflect.DeepEqual value, or to an error with the
// same text. Names and detection lists share one exactly sized backing
// store per result.
func DecodeJobResult(data []byte) (*JobResult, error) {
	d := resultDecoder{data: data}
	if r, ok := d.decode(); ok {
		return r, nil
	}
	r := new(JobResult)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// resultDecoder is DecodeJobResult's one-pass parser. dets receives
// every detection list back to back, allocated up front from a count
// of the input's det arrays, and spans locates each fault's name (in
// data) and list (in dets) until the whole input has parsed.
type resultDecoder struct {
	data  []byte
	pos   int
	dets  []int
	spans []faultSpan
}

type faultSpan struct {
	nameLo, nameHi int
	detLo, detHi   int
	det            bool // the det key was present, so Det is non-nil
}

// minFaultBytes is the length of the shortest per-fault object the
// encoder writes; it bounds a capacity hint taken from the input.
const minFaultBytes = len(`{"f":0,"name":"","det_count":0,"first_det":0}`)

// countDets counts the elements of every det array in data, assuming
// the service's shape. It only sizes an allocation: a wrong count on
// other input costs a regrowth, never a wrong value. It seeks '[',
// which is rare in a result, rather than the key, which starts with a
// quote and so would stop the search at every string.
func countDets(data []byte) int {
	n := 0
	for {
		i := bytes.IndexByte(data, '[')
		if i < 0 {
			return n
		}
		det := bytes.HasSuffix(data[:i], []byte(`"det":`))
		data = data[i+1:]
		if !det {
			continue
		}
		end := bytes.IndexByte(data, ']')
		if end < 0 {
			return n
		}
		if end > 0 {
			n += bytes.Count(data[:end], []byte{','}) + 1
		}
		data = data[end+1:]
	}
}

// decode parses data in the fast shape. It reports false, leaving the
// decision to json.Unmarshal, on anything outside that shape.
func (d *resultDecoder) decode() (*JobResult, bool) {
	data := d.data
	r := new(JobResult)
	if !d.eat('{') {
		return nil, false
	}
	var seen uint32
	for more := !d.eat('}'); more; {
		key, ok := d.key()
		if !ok {
			return nil, false
		}
		var bit uint32
		switch string(key) {
		case "id":
			bit = 1 << 0
			r.ID, ok = d.str()
		case "kind":
			bit = 1 << 1
			r.Kind, ok = d.str()
		case "circuit":
			bit = 1 << 2
			r.Circuit, ok = d.str()
		case "fingerprint":
			bit = 1 << 3
			r.Fingerprint, ok = d.str()
		case "mode":
			bit = 1 << 4
			r.Mode, ok = d.str()
		case "faults":
			bit = 1 << 5
			r.Faults, ok = d.int()
		case "total_faults":
			bit = 1 << 6
			r.TotalFaults, ok = d.int()
		case "fault_shard":
			bit = 1 << 7
			r.FaultShard, ok = decodeNested[FaultShard](d)
		case "vectors":
			bit = 1 << 8
			r.Vectors, ok = d.int()
		case "vectors_used":
			bit = 1 << 9
			r.VectorsUsed, ok = d.int()
		case "detected":
			bit = 1 << 10
			r.Detected, ok = d.int()
		case "coverage":
			bit = 1 << 11
			r.Coverage, ok = d.float()
		case "ndet":
			bit = 1 << 12
			r.Ndet, ok = d.ndet(min(max(r.Vectors, 0), len(data)/2))
		case "per_fault":
			bit = 1 << 13
			r.PerFault, ok = d.perFault(min(max(r.Faults, 0), len(data)/minFaultBytes))
		case "timing":
			bit = 1 << 14
			r.Timing, ok = decodeNested[Timing](d)
		case "trace_id":
			bit = 1 << 15
			r.TraceID, ok = d.str()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		switch {
		case d.eat(','):
		case d.eat('}'):
			more = false
		default:
			return nil, false
		}
	}
	for ; d.pos < len(data); d.pos++ {
		if c := data[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return nil, false
		}
	}
	d.fill(r.PerFault)
	return r, true
}

// fill gives the parsed faults their names and detection lists: one
// string holds every name and one array every list, and each fault
// gets a full-capacity window of them.
func (d *resultDecoder) fill(pf []FaultResult) {
	if len(d.spans) == 0 {
		return
	}
	var names strings.Builder
	n, anyDet := 0, false
	for _, sp := range d.spans {
		n += sp.nameHi - sp.nameLo
		anyDet = anyDet || sp.det
	}
	names.Grow(n)
	for _, sp := range d.spans {
		names.Write(d.data[sp.nameLo:sp.nameHi])
	}
	all := names.String()
	dets := d.dets
	if anyDet && len(dets) != cap(dets) {
		dets = append(make([]int, 0, len(dets)), dets...)
	}
	off := 0
	for i, sp := range d.spans {
		end := off + sp.nameHi - sp.nameLo
		pf[i].Name = all[off:end]
		off = end
		if sp.det {
			pf[i].Det = dets[sp.detLo:sp.detHi:sp.detHi]
		}
	}
}

// eat consumes c if it is the next byte.
func (d *resultDecoder) eat(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key reads an object key and its colon. Keys are plain ASCII.
func (d *resultDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	lo := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			k := d.data[lo:d.pos]
			d.pos++
			return k, d.eat(':')
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// strSpan reads a string without escapes or control bytes and returns
// its contents' bounds in data. Non-ASCII contents must be valid
// UTF-8: encoding/json would replace invalid bytes.
func (d *resultDecoder) strSpan() (lo, hi int, ok bool) {
	if !d.eat('"') {
		return 0, 0, false
	}
	lo = d.pos
	ascii := true
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			hi = d.pos
			d.pos++
			return lo, hi, ascii || utf8.Valid(d.data[lo:hi])
		case c == '\\' || c < 0x20:
			return 0, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, 0, false
}

func (d *resultDecoder) str() (string, bool) {
	lo, hi, ok := d.strSpan()
	if !ok {
		return "", false
	}
	return string(d.data[lo:hi]), true
}

// int reads an integer literal.
func (d *resultDecoder) int() (int, bool) {
	v, p, ok := parseInt(d.data, d.pos)
	d.pos = p
	return v, ok
}

// parseInt reads an integer literal of at most 18 digits, which always
// fits an int64, at data[p] and returns it with the position after it.
// Anything longer, a fraction or an exponent leaves a byte the caller
// does not expect, so the input goes to json.Unmarshal.
func parseInt(data []byte, p int) (v, next int, ok bool) {
	neg := p < len(data) && data[p] == '-'
	if neg {
		p++
	}
	start := p
	if p < len(data) && data[p] == '0' {
		p++
	} else {
		for ; p < len(data) && p-start < 18; p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			v = v*10 + int(c)
		}
		if p == start {
			return 0, p, false
		}
	}
	if neg {
		v = -v
	}
	return v, p, true
}

// float reads a JSON number and converts it as encoding/json does.
func (d *resultDecoder) float() (float64, bool) {
	p, data := d.pos, d.data
	digits := func() int {
		q := p
		for p < len(data) && data[p]-'0' <= 9 {
			p++
		}
		return p - q
	}
	if p < len(data) && data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case digits() == 0:
		return 0, false
	}
	if p < len(data) && data[p] == '.' {
		p++
		if digits() == 0 {
			return 0, false
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(data[d.pos:p]), 64)
	if err != nil {
		return 0, false
	}
	d.pos = p
	return f, true
}

// list appends the elements of an int array to dst.
func (d *resultDecoder) list(dst []int) ([]int, bool) {
	data, p := d.data, d.pos
	if p >= len(data) || data[p] != '[' {
		return dst, false
	}
	if p++; p < len(data) && data[p] == ']' {
		d.pos = p + 1
		return dst, true
	}
	for {
		v, next, ok := parseInt(data, p)
		if !ok || next >= len(data) {
			return dst, false
		}
		dst = append(dst, v)
		switch p = next + 1; data[next] {
		case ',':
		case ']':
			d.pos = p
			return dst, true
		default:
			return dst, false
		}
	}
}

// ndet reads the per-vector counters into their own exact slice; hint
// is their expected number.
func (d *resultDecoder) ndet(hint int) ([]int, bool) {
	out, ok := d.list(make([]int, 0, hint))
	if ok && len(out) != cap(out) {
		out = append(make([]int, 0, len(out)), out...)
	}
	return out, ok
}

// perFault reads the per-fault array. Names and detection lists are
// filled in by fill once the whole input has parsed.
func (d *resultDecoder) perFault(hint int) ([]FaultResult, bool) {
	if !d.eat('[') {
		return nil, false
	}
	if d.eat(']') {
		return []FaultResult{}, true
	}
	out := make([]FaultResult, 0, hint)
	d.spans = make([]faultSpan, 0, hint)
	d.dets = make([]int, 0, countDets(d.data[d.pos:]))
	for {
		fr, sp, ok := d.fault()
		if !ok {
			return nil, false
		}
		out = append(out, fr)
		d.spans = append(d.spans, sp)
		switch {
		case d.eat(','):
		case d.eat(']'):
			if len(out) != cap(out) {
				out = append(make([]FaultResult, 0, len(out)), out...)
			}
			return out, true
		default:
			return nil, false
		}
	}
}

// fault reads one per-fault object.
func (d *resultDecoder) fault() (fr FaultResult, sp faultSpan, ok bool) {
	if !d.eat('{') {
		return fr, sp, false
	}
	var seen uint8
	for more := !d.eat('}'); more; {
		key, ok := d.key()
		if !ok {
			return fr, sp, false
		}
		var bit uint8
		switch string(key) {
		case "f":
			bit = 1 << 0
			fr.F, ok = d.int()
		case "name":
			bit = 1 << 1
			sp.nameLo, sp.nameHi, ok = d.strSpan()
		case "det_count":
			bit = 1 << 2
			fr.DetCount, ok = d.int()
		case "first_det":
			bit = 1 << 3
			fr.FirstDet, ok = d.int()
		case "det":
			bit = 1 << 4
			sp.detLo = len(d.dets)
			d.dets, ok = d.list(d.dets)
			sp.detHi, sp.det = len(d.dets), true
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return fr, sp, false
		}
		seen |= bit
		switch {
		case d.eat(','):
		case d.eat('}'):
			more = false
		default:
			return fr, sp, false
		}
	}
	return fr, sp, true
}

// decodeNested hands one of the small nested objects (fault_shard,
// timing) to json.Unmarshal, which also validates it. A value that
// does not decode cleanly sends the whole input to json.Unmarshal, so
// the error is the one it reports.
func decodeNested[T any](d *resultDecoder) (*T, bool) {
	end, ok := objectEnd(d.data, d.pos)
	if !ok {
		return nil, false
	}
	v := new(T)
	if json.Unmarshal(d.data[d.pos:end], v) != nil {
		return nil, false
	}
	d.pos = end
	return v, true
}

// objectEnd returns the end of the bracket-balanced value starting
// with '{' at data[pos], skipping over strings. It does not validate:
// json.Unmarshal does that on the span.
func objectEnd(data []byte, pos int) (int, bool) {
	if pos >= len(data) || data[pos] != '{' {
		return 0, false
	}
	depth := 0
	for p := pos; p < len(data); p++ {
		switch data[p] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return p + 1, true
			}
		case '"':
			for p++; p < len(data) && data[p] != '"'; p++ {
				if data[p] == '\\' {
					p++
				}
			}
		}
	}
	return 0, false
}
