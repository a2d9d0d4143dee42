// Package codec implements the serialization protocol used on every channel
// of the simulated orchestration system.
//
// The wire format is a faithful subset of the proto3 encoding: varints with a
// continuation bit for integers and booleans, and length-delimited records
// for strings, nested messages, repeated elements, and map entries. Fidelity
// matters because Mutiny's fault models operate at this level (§IV-A of the
// paper): flipping the 1st or 5th bit of a one-byte varint changes the value
// by ±1 or ±16 while the 8th bit is the continuation bit, flipping the least
// significant bit of a string character still yields a valid string, and
// corrupting raw serialization bytes can shift a value from one field to
// another or make the object undecodable altogether.
//
// Messages are plain Go structs annotated with `pb:"N"` or `pb:"N,wirename"`
// tags; encoding and decoding are reflective so the same code serves every
// resource kind, and the Fields/Get/Set helpers enumerate and mutate leaf
// fields generically, which is what the injection campaign builds on.
package codec

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Wire types of the proto3 encoding. Only varint and length-delimited records
// are produced by the encoder; the decoder skips the fixed-width types so
// that corrupted tags do not always abort decoding.
const (
	wireVarint = 0
	wire64Bit  = 1
	wireBytes  = 2
	wire32Bit  = 5
)

// ErrCorrupt is wrapped by all decode errors. A resource whose bytes fail to
// decode is "undecryptable" in the paper's terms; the store deletes such
// resources to keep list operations alive (§II-D).
var ErrCorrupt = errors.New("codec: corrupt message")

const (
	mapKeyField   = 1
	mapValueField = 2
)

// Marshal encodes msg (a struct or pointer to struct with pb tags) into the
// wire format. Field numbers are emitted in ascending order and map entries
// in sorted key order, so encoding is deterministic.
func Marshal(msg any) ([]byte, error) {
	return AppendMarshal(nil, msg)
}

// AppendMarshal encodes msg like Marshal but appends the wire bytes to b
// (which may be nil, or a reused buffer reset with b[:0]) and returns the
// extended slice. It borrows a process-wide encoder for the duration of the
// call; single-owner call sites that encode constantly (the API server's
// request, persist and watch paths) hold an Arena instead and use
// Arena.AppendMarshal, which touches no shared pool at all.
func AppendMarshal(b []byte, msg any) ([]byte, error) {
	e := _encPool.Get().(*encoder)
	out, err := e.marshal(b, msg)
	_encPool.Put(e)
	return out, err
}

// An Arena is a private encoder: the nested-message scratch stack and the
// map-key sort buffer, owned by one worker. The campaign engine runs one
// isolated simulation per worker goroutine, and before arenas every encode in
// every worker met in the same process-wide sync.Pool; an arena keeps that
// state worker-local so the encode hot path shares nothing. Where the encoded
// bytes go is the caller's business. An Arena must not be used from two
// goroutines at once. The zero value is ready to use.
type Arena struct {
	enc encoder
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// AppendMarshal is Marshal into b using only this arena's state: no shared
// pool, no lock, no cross-worker cache-line traffic.
func (a *Arena) AppendMarshal(b []byte, msg any) ([]byte, error) {
	return a.enc.marshal(b, msg)
}

// maxPooledBuffer bounds the nested-message scratch an encoder keeps, so one
// giant message does not pin a giant backing array forever.
const maxPooledBuffer = 1 << 16

// Unmarshal decodes data into msg, which must be a non-nil pointer to a
// struct with pb tags. Unknown fields are skipped; structural damage
// (truncated varints, overlong lengths, invalid UTF-8 in strings, group wire
// types) yields an error wrapping ErrCorrupt.
func Unmarshal(data []byte, msg any) error {
	v := reflect.ValueOf(msg)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("codec: unmarshal into non-pointer %T", msg)
	}
	elem := v.Elem()
	if elem.Kind() != reflect.Struct {
		return fmt.Errorf("codec: unmarshal into non-struct %T", msg)
	}
	elem.SetZero()
	return decodeStruct(data, planFor(elem.Type()), elem)
}

// --- encoding -------------------------------------------------------------

type fieldDesc struct {
	index  int
	number int
	name   string
	// kind and elemKind are precompiled so the encode/decode hot loops never
	// re-derive them from reflection per call.
	kind     reflect.Kind
	elemKind reflect.Kind // slice element kind; Invalid otherwise
	// sub is the plan of a struct field's type, or of a slice field's struct
	// element, resolved when the plan is built: a nested encode or decode
	// looks nothing up.
	sub *structPlan
}

// structPlan is the precompiled wire schema of one struct type: its tagged
// fields in field-number order plus a decode index from wire field number to
// field slot. Building it parses struct tags exactly once per type; the hot
// paths only ever touch the compiled plan.
type structPlan struct {
	fields []fieldDesc
	// dense maps field numbers to fields indexes, offset by one so zero means
	// "unknown field".
	dense []int16
}

// fieldByNum resolves a decoded field number to a fields index.
func (p *structPlan) fieldByNum(num int) (int, bool) {
	if num < len(p.dense) {
		if i := p.dense[num]; i != 0 {
			return int(i) - 1, true
		}
	}
	return 0, false
}

// maxFieldNumber bounds the field numbers a pb tag may carry, and with them
// the dense decode index (the resource model's numbers are ≤ 10).
const maxFieldNumber = 127

var _schemaCache sync.Map // reflect.Type -> *structPlan

func planFor(t reflect.Type) *structPlan {
	if cached, ok := _schemaCache.Load(t); ok {
		return cached.(*structPlan)
	}
	building := make(map[reflect.Type]*structPlan)
	plan := buildPlan(t, building)
	// Publish only complete plans: a child plan may point back at a parent
	// that was still being filled in when the child was built.
	for bt, bp := range building {
		if bt != t {
			_schemaCache.LoadOrStore(bt, bp)
		}
	}
	cached, _ := _schemaCache.LoadOrStore(t, plan)
	return cached.(*structPlan)
}

// buildPlan compiles t's plan and, through sub, the plans of the struct types
// it nests. building holds the plans of this build, each entered before its
// fields are compiled, so a recursive type resolves to the plan being built
// and the build terminates.
func buildPlan(t reflect.Type, building map[reflect.Type]*structPlan) *structPlan {
	if plan, ok := building[t]; ok {
		return plan
	}
	if cached, ok := _schemaCache.Load(t); ok {
		return cached.(*structPlan)
	}
	plan := &structPlan{}
	building[t] = plan
	var fields []fieldDesc
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("pb")
		if !ok || tag == "-" || !f.IsExported() {
			continue
		}
		numStr, wireName, _ := strings.Cut(tag, ",")
		num, err := strconv.Atoi(numStr)
		if err != nil || num <= 0 || num > maxFieldNumber {
			panic(fmt.Sprintf("codec: bad pb tag %q on %s.%s (field numbers run 1 to %d)", tag, t.Name(), f.Name, maxFieldNumber))
		}
		if wireName == "" {
			wireName = lowerCamel(f.Name)
		}
		fd := fieldDesc{index: i, number: num, name: wireName, kind: f.Type.Kind()}
		switch fd.kind {
		case reflect.Struct:
			fd.sub = buildPlan(f.Type, building)
		case reflect.Slice:
			fd.elemKind = f.Type.Elem().Kind()
			if fd.elemKind == reflect.Struct {
				fd.sub = buildPlan(f.Type.Elem(), building)
			}
		}
		fields = append(fields, fd)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].number < fields[j].number })
	maxNum := 0
	for _, fd := range fields {
		if fd.number > maxNum {
			maxNum = fd.number
		}
	}
	plan.fields = fields
	plan.dense = make([]int16, maxNum+1)
	for i, fd := range fields {
		plan.dense[fd.number] = int16(i + 1)
	}
	return plan
}

func structFields(t reflect.Type) []fieldDesc {
	return planFor(t).fields
}

// encoder carries the scratch state one Marshal needs: a by-depth stack of
// intermediate buffers for nested messages (a length-delimited format needs
// the inner length before the inner bytes can be placed) and the map-key
// sort buffer. The state is threaded through the encode recursion instead of
// being fetched from process-wide sync.Pools at every nesting level — one
// encoder acquisition per top-level Marshal (and zero for arena owners)
// replaces a pool round-trip per nested struct, slice, and map.
type encoder struct {
	// scratch[d] is the reusable buffer for nesting depth d. Buffers that
	// grew beyond maxPooledBuffer are dropped (slot reset to nil) so one
	// giant message does not pin its backing array.
	scratch [][]byte
	depth   int
	keys    []string
}

var _encPool = sync.Pool{New: func() any { return new(encoder) }}

// grab claims the scratch slot for the current nesting depth and returns its
// index. Pair with put.
func (e *encoder) grab() int {
	if e.depth == len(e.scratch) {
		e.scratch = append(e.scratch, nil)
	}
	slot := e.depth
	e.depth++
	return slot
}

// put releases a slot, retaining b's backing array for reuse at this depth.
func (e *encoder) put(slot int, b []byte) {
	if cap(b) > maxPooledBuffer {
		b = nil
	}
	e.scratch[slot] = b[:0]
	e.depth--
}

func (e *encoder) marshal(b []byte, msg any) ([]byte, error) {
	v, err := structValue(msg)
	if err != nil {
		return nil, err
	}
	return e.appendStruct(b, planFor(v.Type()), v)
}

// structValue returns the struct msg holds or points to.
func structValue(msg any) (reflect.Value, error) {
	v := reflect.ValueOf(msg)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return v, fmt.Errorf("codec: marshal nil %T", msg)
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return v, fmt.Errorf("codec: marshal non-struct %T", msg)
	}
	return v, nil
}

func lowerCamel(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

func (e *encoder) appendStruct(b []byte, plan *structPlan, v reflect.Value) ([]byte, error) {
	var err error
	for i := range plan.fields {
		fd := &plan.fields[i]
		b, err = e.appendField(b, fd, v.Field(fd.index))
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (e *encoder) appendField(b []byte, fd *fieldDesc, v reflect.Value) ([]byte, error) {
	num := fd.number
	switch fd.kind {
	case reflect.String:
		if v.Len() == 0 {
			return b, nil
		}
		b = appendTag(b, num, wireBytes)
		b = appendVarint(b, uint64(v.Len()))
		return append(b, v.String()...), nil

	case reflect.Bool:
		if !v.Bool() {
			return b, nil
		}
		b = appendTag(b, num, wireVarint)
		return appendVarint(b, 1), nil

	case reflect.Int, reflect.Int32, reflect.Int64:
		if v.Int() == 0 {
			return b, nil
		}
		b = appendTag(b, num, wireVarint)
		return appendVarint(b, uint64(v.Int())), nil

	case reflect.Struct:
		slot := e.grab()
		inner, err := e.appendStruct(e.scratch[slot][:0], fd.sub, v)
		if err != nil {
			e.put(slot, e.scratch[slot]) // appendStruct returned nil; keep the buffer
			return nil, err
		}
		if len(inner) != 0 {
			b = appendTag(b, num, wireBytes)
			b = appendVarint(b, uint64(len(inner)))
			b = append(b, inner...)
		}
		e.put(slot, inner)
		return b, nil

	case reflect.Slice:
		if fd.elemKind == reflect.Uint8 {
			if v.Len() == 0 {
				return b, nil
			}
			b = appendTag(b, num, wireBytes)
			b = appendVarint(b, uint64(v.Len()))
			return append(b, v.Bytes()...), nil
		}
		return e.appendSlice(b, fd, v)

	case reflect.Map:
		return e.appendMap(b, num, v)

	default:
		return nil, fmt.Errorf("codec: unsupported field kind %s", fd.kind)
	}
}

func (e *encoder) appendSlice(b []byte, fd *fieldDesc, v reflect.Value) ([]byte, error) {
	n := v.Len()
	if n == 0 {
		return b, nil
	}
	num := fd.number
	switch fd.elemKind {
	case reflect.String:
		// Repeated strings emit every element, including empty ones, so
		// that round trips preserve slice length.
		for i := 0; i < n; i++ {
			el := v.Index(i)
			b = appendTag(b, num, wireBytes)
			b = appendVarint(b, uint64(el.Len()))
			b = append(b, el.String()...)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		for i := 0; i < n; i++ {
			b = appendTag(b, num, wireVarint)
			b = appendVarint(b, uint64(v.Index(i).Int()))
		}
	case reflect.Struct:
		slot := e.grab()
		inner := e.scratch[slot][:0]
		for i := 0; i < n; i++ {
			var err error
			inner, err = e.appendStruct(inner[:0], fd.sub, v.Index(i))
			if err != nil {
				e.put(slot, e.scratch[slot]) // appendStruct returned nil; keep the buffer
				return nil, err
			}
			b = appendTag(b, num, wireBytes)
			b = appendVarint(b, uint64(len(inner)))
			b = append(b, inner...)
		}
		e.put(slot, inner)
	default:
		return nil, fmt.Errorf("codec: unsupported slice element kind %s", fd.elemKind)
	}
	return b, nil
}

func (e *encoder) appendMap(b []byte, num int, v reflect.Value) ([]byte, error) {
	if v.Type().Key().Kind() != reflect.String || v.Type().Elem().Kind() != reflect.String {
		return nil, fmt.Errorf("codec: unsupported map type %s", v.Type())
	}
	if v.Len() == 0 {
		return b, nil
	}
	// All supported maps are map[string]string; the direct assertion is
	// allocation-free (map headers are pointer-shaped), unlike the
	// reflect.MapRange Key()/Value() boxing it replaces, which cost two
	// allocations per entry on every labels/selector/annotations encode.
	m, ok := v.Interface().(map[string]string)
	if !ok {
		return nil, fmt.Errorf("codec: unsupported map type %s", v.Type())
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	slot := e.grab()
	entry := e.scratch[slot][:0]
	for _, k := range keys {
		val := m[k]
		entry = entry[:0]
		entry = appendTag(entry, mapKeyField, wireBytes)
		entry = appendVarint(entry, uint64(len(k)))
		entry = append(entry, k...)
		entry = appendTag(entry, mapValueField, wireBytes)
		entry = appendVarint(entry, uint64(len(val)))
		entry = append(entry, val...)
		b = appendTag(b, num, wireBytes)
		b = appendVarint(b, uint64(len(entry)))
		b = append(b, entry...)
	}
	e.put(slot, entry)
	e.keys = keys[:0]
	return b, nil
}

// Size returns the length of msg's encoding, len(Marshal(msg)), without
// making it: the same walk of the compiled plan, adding up record lengths
// instead of writing records, so it needs no nested-message buffers and no
// map-key sort (a map's entries add up to the same total in any order). It
// refuses what Marshal refuses.
func Size(msg any) (int, error) {
	v, err := structValue(msg)
	if err != nil {
		return 0, err
	}
	return sizeStruct(planFor(v.Type()), v)
}

func sizeStruct(plan *structPlan, v reflect.Value) (int, error) {
	n := 0
	for i := range plan.fields {
		fd := &plan.fields[i]
		m, err := sizeField(fd, v.Field(fd.index))
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

// sizeField mirrors appendField: the bytes it would append for v.
func sizeField(fd *fieldDesc, v reflect.Value) (int, error) {
	tag := varintSize(uint64(fd.number) << 3)
	switch fd.kind {
	case reflect.String:
		return bytesRecordSize(tag, v.Len(), false), nil
	case reflect.Bool:
		if !v.Bool() {
			return 0, nil
		}
		return tag + 1, nil
	case reflect.Int, reflect.Int32, reflect.Int64:
		if v.Int() == 0 {
			return 0, nil
		}
		return tag + varintSize(uint64(v.Int())), nil
	case reflect.Struct:
		inner, err := sizeStruct(fd.sub, v)
		if err != nil {
			return 0, err
		}
		return bytesRecordSize(tag, inner, false), nil
	case reflect.Slice:
		if fd.elemKind == reflect.Uint8 {
			return bytesRecordSize(tag, v.Len(), false), nil
		}
		return sizeSlice(tag, fd, v)
	case reflect.Map:
		return sizeMap(tag, v)
	default:
		return 0, fmt.Errorf("codec: unsupported field kind %s", fd.kind)
	}
}

// bytesRecordSize is the size of a length-delimited record of n body bytes
// whose tag takes tag bytes: none for an empty body unless always is set.
func bytesRecordSize(tag, n int, always bool) int {
	if n == 0 && !always {
		return 0
	}
	return tag + varintSize(uint64(n)) + n
}

// sizeSlice mirrors appendSlice: every element is a record, empty strings and
// empty structs included.
func sizeSlice(tag int, fd *fieldDesc, v reflect.Value) (int, error) {
	total := 0
	switch fd.elemKind {
	case reflect.String:
		for i := 0; i < v.Len(); i++ {
			total += bytesRecordSize(tag, v.Index(i).Len(), true)
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		for i := 0; i < v.Len(); i++ {
			total += tag + varintSize(uint64(v.Index(i).Int()))
		}
	case reflect.Struct:
		for i := 0; i < v.Len(); i++ {
			inner, err := sizeStruct(fd.sub, v.Index(i))
			if err != nil {
				return 0, err
			}
			total += bytesRecordSize(tag, inner, true)
		}
	default:
		if v.Len() == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("codec: unsupported slice element kind %s", fd.elemKind)
	}
	return total, nil
}

// sizeMap mirrors appendMap: one record per entry, its key and value records
// always present.
func sizeMap(tag int, v reflect.Value) (int, error) {
	if v.Type().Key().Kind() != reflect.String || v.Type().Elem().Kind() != reflect.String {
		return 0, fmt.Errorf("codec: unsupported map type %s", v.Type())
	}
	if v.Len() == 0 {
		return 0, nil
	}
	m, ok := v.Interface().(map[string]string)
	if !ok {
		return 0, fmt.Errorf("codec: unsupported map type %s", v.Type())
	}
	const fieldTag = 1 // the entry's key and value field numbers, 1 and 2, tag in one byte
	total := 0
	for k, val := range m {
		entry := bytesRecordSize(fieldTag, len(k), true) + bytesRecordSize(fieldTag, len(val), true)
		total += bytesRecordSize(tag, entry, true)
	}
	return total, nil
}

// varintSize returns the encoded size of v.
func varintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendTag(b []byte, num, wt int) []byte {
	return appendVarint(b, uint64(num)<<3|uint64(wt))
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// --- decoding ---------------------------------------------------------------

func decodeStruct(data []byte, plan *structPlan, v reflect.Value) error {
	for len(data) > 0 {
		tag, n, err := readVarint(data)
		if err != nil {
			return err
		}
		data = data[n:]
		num, wt := int(tag>>3), int(tag&7)
		if num <= 0 {
			return fmt.Errorf("%w: field number %d", ErrCorrupt, num)
		}
		var (
			scalar uint64
			body   []byte
		)
		switch wt {
		case wireVarint:
			scalar, n, err = readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
		case wireBytes:
			length, n, err := readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
			if length > uint64(len(data)) {
				return fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCorrupt, length, len(data))
			}
			body = data[:length]
			data = data[length:]
		case wire64Bit:
			if len(data) < 8 {
				return fmt.Errorf("%w: truncated 64-bit field", ErrCorrupt)
			}
			data = data[8:]
			continue // unknown fixed-width field: skip
		case wire32Bit:
			if len(data) < 4 {
				return fmt.Errorf("%w: truncated 32-bit field", ErrCorrupt)
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("%w: wire type %d", ErrCorrupt, wt)
		}
		fi, known := plan.fieldByNum(num)
		if !known {
			continue // unknown field: skip
		}
		fd := &plan.fields[fi]
		if err := setDecoded(v.Field(fd.index), fd, wt, scalar, body); err != nil {
			return err
		}
	}
	return nil
}

func setDecoded(f reflect.Value, fd *fieldDesc, wt int, scalar uint64, body []byte) error {
	switch fd.kind {
	case reflect.String:
		if wt != wireBytes {
			return nil // wrong wire type for field: ignore, value lost
		}
		if !utf8.Valid(body) {
			return fmt.Errorf("%w: invalid UTF-8 in string field", ErrCorrupt)
		}
		f.SetString(Intern(body))

	case reflect.Bool:
		if wt != wireVarint {
			return nil
		}
		f.SetBool(scalar != 0)

	case reflect.Int, reflect.Int32, reflect.Int64:
		if wt != wireVarint {
			return nil
		}
		f.SetInt(int64(scalar))

	case reflect.Struct:
		if wt != wireBytes {
			return nil
		}
		return decodeStruct(body, fd.sub, f)

	case reflect.Slice:
		if fd.elemKind == reflect.Uint8 {
			if wt != wireBytes {
				return nil
			}
			f.SetBytes(append([]byte(nil), body...))
			return nil
		}
		return appendDecodedElem(f, fd, wt, scalar, body)

	case reflect.Map:
		if wt != wireBytes {
			return nil
		}
		k, v, err := decodeMapEntry(body)
		if err != nil {
			return err
		}
		if f.IsNil() {
			f.Set(reflect.MakeMap(f.Type()))
		}
		f.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(v))

	default:
		return fmt.Errorf("codec: unsupported field kind %s", fd.kind)
	}
	return nil
}

func appendDecodedElem(f reflect.Value, fd *fieldDesc, wt int, scalar uint64, body []byte) error {
	elemKind := fd.elemKind
	// Wire-type mismatches are checked before growing the slice so a mangled
	// tag does not append a spurious zero element.
	switch elemKind {
	case reflect.String, reflect.Struct:
		if wt != wireBytes {
			return nil
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		if wt != wireVarint {
			return nil
		}
	default:
		return fmt.Errorf("codec: unsupported slice element kind %s", elemKind)
	}
	// Growing in place via Append(zero) then setting the new slot avoids the
	// reflect.New heap value per element of the old implementation.
	n := f.Len()
	f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	el := f.Index(n)
	switch elemKind {
	case reflect.String:
		if !utf8.Valid(body) {
			f.Set(f.Slice(0, n))
			return fmt.Errorf("%w: invalid UTF-8 in repeated string", ErrCorrupt)
		}
		el.SetString(Intern(body))
	case reflect.Int, reflect.Int32, reflect.Int64:
		el.SetInt(int64(scalar))
	case reflect.Struct:
		if err := decodeStruct(body, fd.sub, el); err != nil {
			f.Set(f.Slice(0, n))
			return err
		}
	}
	return nil
}

func decodeMapEntry(body []byte) (key, value string, err error) {
	for len(body) > 0 {
		tag, n, err := readVarint(body)
		if err != nil {
			return "", "", err
		}
		body = body[n:]
		if tag&7 != wireBytes {
			return "", "", fmt.Errorf("%w: map entry wire type %d", ErrCorrupt, tag&7)
		}
		length, n, err := readVarint(body)
		if err != nil {
			return "", "", err
		}
		body = body[n:]
		if length > uint64(len(body)) {
			return "", "", fmt.Errorf("%w: map entry length %d", ErrCorrupt, length)
		}
		s := body[:length]
		body = body[length:]
		if !utf8.Valid(s) {
			return "", "", fmt.Errorf("%w: invalid UTF-8 in map entry", ErrCorrupt)
		}
		switch tag >> 3 {
		case mapKeyField:
			key = Intern(s)
		case mapValueField:
			value = Intern(s)
		default:
			// unknown map entry field: skip
		}
	}
	return key, value, nil
}

func readVarint(data []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(data); i++ {
		if i == 10 {
			return 0, 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
		}
		b := data[i]
		v |= uint64(b&0x7f) << (7 * uint(i))
		if b&0x80 == 0 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
}
