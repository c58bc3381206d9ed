package grb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"slices"

	"github.com/grblas/grb/internal/sparse"
)

// Serialization (§VII-B of the paper): GraphBLAS objects can be turned into
// an opaque byte stream — e.g. to ship over a wire in a distributed setting —
// that need not be interpretable by other implementations. This
// implementation uses a little-endian framed layout with fast paths for the
// numeric predefined domains and a gob fallback for user-defined domains.
// The stream records the Go domain name; deserializing into a different
// domain fails with DomainMismatch.

var serMagic = [6]byte{'G', 'R', 'B', '2', '.', '0'}

const (
	serKindMatrix = byte('M')
	serKindVector = byte('V')
)

// typeName returns the stable name recorded in serialized streams.
func typeName[T any]() string {
	var zero T
	return reflect.TypeOf(&zero).Elem().String()
}

// fixedWidth returns the bytes one value of T takes in a stream, or 0 when T
// is not one of the thirteen fast-path domains and its values travel as gob.
func fixedWidth[T any]() int {
	var zero T
	switch any(zero).(type) {
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int64, uint64, int, uint, float64:
		return 8
	}
	return 0
}

// The stream, every integer a little-endian int64:
//
//	magic "GRB2.0" | kind 'M' or 'V' | len(name), name of T
//	matrix: rows | cols | len(Ptr), Ptr | len(Ind), Ind
//	vector: n | len(Ind), Ind
//	len(Val) | tag | Val: tag 0, len(Val)·fixedWidth bytes; tag 1, gob
//
// streamSize is its exact length for a fast-path domain — 56+len(name)+
// 8·(rows+1)+(8+w)·nnz for a matrix, 40+len(name)+(8+w)·nnz for a vector —
// and 0 for a gob domain, whose length only encoding tells.
func streamSize[T any](kind byte, nptr, nvals int) int {
	w := fixedWidth[T]()
	if w == 0 {
		return 0
	}
	size := len(serMagic) + 1 + 8 + len(typeName[T]()) + 8 + 8 + 8*nvals + 8 + 1 + w*nvals
	if kind == serKindMatrix {
		size += 8 + 8 + 8*nptr
	}
	return size
}

// appendStream appends the stream of one object to b: dims is rows, cols and
// ptr the row pointers for a matrix, n and nil for a vector. Called with room
// for streamSize bytes it writes each byte once and allocates nothing.
func appendStream[T any](b []byte, kind byte, dims []int, ptr, ind []int, vals []T) ([]byte, error) {
	b = append(append(b, serMagic[:]...), kind)
	name := typeName[T]()
	b = append(appendInt(b, len(name)), name...)
	for _, d := range dims {
		b = appendInt(b, d)
	}
	if kind == serKindMatrix {
		b = appendInts(b, ptr)
	}
	b = appendInt(appendInts(b, ind), len(vals))
	w := fixedWidth[T]()
	if w == 0 {
		buf := bytes.NewBuffer(append(b, 1))
		if err := gob.NewEncoder(buf).Encode(vals); err != nil {
			return nil, errf(InvalidValue, "serialize: gob encoding failed: %v", err)
		}
		return buf.Bytes(), nil
	}
	b = append(b, 0)
	b, p := grow(b, w*len(vals))
	le := binary.LittleEndian
	switch vs := any(vals).(type) {
	case []bool:
		for i, v := range vs {
			p[i] = 0
			if v {
				p[i] = 1
			}
		}
	case []int8:
		for i, v := range vs {
			p[i] = byte(v)
		}
	case []uint8:
		copy(p, vs)
	case []int16:
		put16(p, vs)
	case []uint16:
		put16(p, vs)
	case []int32:
		put32(p, vs)
	case []uint32:
		put32(p, vs)
	case []int64:
		put64(p, vs)
	case []uint64:
		put64(p, vs)
	case []int:
		put64(p, vs)
	case []uint:
		put64(p, vs)
	case []float32:
		for i, v := range vs {
			le.PutUint32(p[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range vs {
			le.PutUint64(p[8*i:], math.Float64bits(v))
		}
	}
	return b, nil
}

// grow extends b by n bytes and returns it with the extension.
func grow(b []byte, n int) (whole, tail []byte) {
	b = slices.Grow(b, n)[:len(b)+n]
	return b, b[len(b)-n:]
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendInts(b []byte, s []int) []byte {
	b, p := grow(appendInt(b, len(s)), 8*len(s))
	put64(p, s)
	return b
}

func put16[T int16 | uint16](p []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint16(p[2*i:], uint16(v))
	}
}

func put32[T int32 | uint32](p []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(v))
	}
}

func put64[T int64 | uint64 | int | uint](p []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(v))
	}
}

func get16[T int16 | uint16](vs []T, p []byte) {
	for i := range vs {
		vs[i] = T(binary.LittleEndian.Uint16(p[2*i:]))
	}
}

func get32[T int32 | uint32](vs []T, p []byte) {
	for i := range vs {
		vs[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

func get64[T int64 | uint64 | int | uint](vs []T, p []byte) {
	for i := range vs {
		vs[i] = T(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// decoder reads a stream front to back. A read past the end, or a length the
// remaining bytes cannot hold, sets bad and yields zero values from then on,
// so a caller checks once, before it trusts anything it read.
type decoder struct {
	rest []byte
	bad  bool
}

// take returns the next n bytes; n is checked against what is left before
// anything is sized by it.
func (d *decoder) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.rest) {
		d.bad = true
		return nil
	}
	p := d.rest[:n]
	d.rest = d.rest[n:]
	return p
}

func (d *decoder) int() int {
	if p := d.take(8); p != nil {
		return int(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// ints reads a length-prefixed int array, allocating only once the stream is
// known to hold that many.
func (d *decoder) ints() []int {
	n := d.int()
	if n < 0 || n > len(d.rest)/8 {
		d.bad = true
		return nil
	}
	s := make([]int, n)
	get64(s, d.take(8*n))
	return s
}

// header checks magic, kind and domain, the common front of both streams.
func header[T any](d *decoder, kind byte, who string) error {
	if string(d.take(len(serMagic))) != string(serMagic[:]) {
		return errf(InvalidObject, "%s: bad magic", who)
	}
	if k := d.take(1); k == nil || k[0] != kind {
		return errf(InvalidObject, "%s: stream holds another kind of object", who)
	}
	name := d.take(d.int())
	if d.bad {
		return errf(InvalidObject, "%s: bad domain name", who)
	}
	if string(name) != typeName[T]() {
		return errf(DomainMismatch, "%s: stream domain %s, requested %s", who, name, typeName[T]())
	}
	return nil
}

// values reads the value payload, which must hold exactly n entries: a
// fixed-width payload shorter than n·width is a truncated stream.
func values[T any](d *decoder, n int) ([]T, error) {
	tag := d.take(1)
	if tag == nil {
		return nil, errf(InvalidObject, "deserialize: truncated value payload")
	}
	if tag[0] == 1 {
		var vals []T
		if err := gob.NewDecoder(bytes.NewReader(d.rest)).Decode(&vals); err != nil {
			return nil, errf(InvalidObject, "deserialize: gob decoding failed: %v", err)
		}
		if len(vals) != n {
			return nil, errf(InvalidObject, "deserialize: expected %d values, got %d", n, len(vals))
		}
		return vals, nil
	}
	w := fixedWidth[T]()
	if w == 0 {
		return nil, errf(InvalidObject, "deserialize: stream has fixed-width payload but domain %s needs gob", typeName[T]())
	}
	if n < 0 || n > len(d.rest)/w {
		return nil, errf(InvalidObject, "deserialize: truncated %s payload", typeName[T]())
	}
	p := d.take(w * n)
	vals := make([]T, n)
	le := binary.LittleEndian
	switch vs := any(vals).(type) {
	case []bool:
		for i := range vs {
			vs[i] = p[i] != 0
		}
	case []int8:
		for i := range vs {
			vs[i] = int8(p[i])
		}
	case []uint8:
		copy(vs, p)
	case []int16:
		get16(vs, p)
	case []uint16:
		get16(vs, p)
	case []int32:
		get32(vs, p)
	case []uint32:
		get32(vs, p)
	case []int64:
		get64(vs, p)
	case []uint64:
		get64(vs, p)
	case []int:
		get64(vs, p)
	case []uint:
		get64(vs, p)
	case []float32:
		for i := range vs {
			vs[i] = math.Float32frombits(le.Uint32(p[4*i:]))
		}
	case []float64:
		for i := range vs {
			vs[i] = math.Float64frombits(le.Uint64(p[8*i:]))
		}
	}
	return vals, nil
}

// serializeInto writes a stream into buf, or reports how much room it needs.
// A fast-path domain is sized first and encoded in place; a gob domain is
// encoded to find out, in buf if it happens to fit.
func serializeInto[T any](buf []byte, kind byte, dims []int, ptr, ind []int, vals []T) (Index, error) {
	need := streamSize[T](kind, len(ptr), len(vals))
	if need <= len(buf) {
		data, err := appendStream(buf[:0:len(buf)], kind, dims, ptr, ind, vals)
		if err != nil {
			return 0, err
		}
		need = len(data)
	}
	if need > len(buf) {
		return 0, errf(InsufficientSpace, "Serialize: need %d bytes, buffer has %d", need, len(buf))
	}
	return need, nil
}

// serializeBytes allocates the stream: once, at its exact size, for a
// fast-path domain.
func serializeBytes[T any](kind byte, dims []int, ptr, ind []int, vals []T) ([]byte, error) {
	return appendStream(make([]byte, 0, streamSize[T](kind, len(ptr), len(vals))), kind, dims, ptr, ind, vals)
}

// serializeSize is arithmetic for a fast-path domain; a gob domain has to be
// encoded to be measured.
func serializeSize[T any](kind byte, dims []int, ptr, ind []int, vals []T) (Index, error) {
	if size := streamSize[T](kind, len(ptr), len(vals)); size > 0 {
		return size, nil
	}
	data, err := appendStream(nil, kind, dims, ptr, ind, vals)
	return len(data), err
}

// SerializeSize returns the number of bytes Serialize needs
// (GrB_Matrix_serializeSize).
func (m *Matrix[T]) SerializeSize() (Index, error) {
	c, err := m.snapshot()
	if err != nil {
		return 0, err
	}
	return serializeSize(serKindMatrix, []int{c.Rows, c.Cols}, c.Ptr, c.Ind, c.Val)
}

// Serialize writes the matrix into buf as an opaque byte stream
// (GrB_Matrix_serialize) and returns the number of bytes written.
// InsufficientSpace is returned when buf is smaller than SerializeSize.
func (m *Matrix[T]) Serialize(buf []byte) (Index, error) {
	c, err := m.snapshot()
	if err != nil {
		return 0, err
	}
	return serializeInto(buf, serKindMatrix, []int{c.Rows, c.Cols}, c.Ptr, c.Ind, c.Val)
}

// SerializeBytes allocates and returns the serialized stream (a Go-binding
// convenience over SerializeSize + Serialize).
func (m *Matrix[T]) SerializeBytes() ([]byte, error) {
	c, err := m.snapshot()
	if err != nil {
		return nil, err
	}
	return serializeBytes(serKindMatrix, []int{c.Rows, c.Cols}, c.Ptr, c.Ind, c.Val)
}

// MatrixDeserialize reconstructs a matrix from a stream produced by
// Serialize (GrB_Matrix_deserialize). The stream's domain must match T.
func MatrixDeserialize[T any](data []byte, opts ...ObjOption) (*Matrix[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	d := &decoder{rest: data}
	if err := header[T](d, serKindMatrix, "MatrixDeserialize"); err != nil {
		return nil, err
	}
	rows, cols := d.int(), d.int()
	ptr, ind := d.ints(), d.ints()
	nval := d.int()
	// Validate the shape against the decoded arrays BEFORE building any
	// structure sized by it (a corrupted row count must not drive an
	// allocation).
	if d.bad || rows <= 0 || cols <= 0 || len(ptr) != rows+1 || nval != len(ind) {
		return nil, errf(InvalidObject, "MatrixDeserialize: truncated or inconsistent stream")
	}
	vals, err := values[T](d, nval)
	if err != nil {
		return nil, err
	}
	csr := &sparse.CSR[T]{Rows: rows, Cols: cols, Ptr: ptr, Ind: ind, Val: vals}
	if !csr.Valid() {
		return nil, errf(InvalidObject, "MatrixDeserialize: stream describes an invalid matrix")
	}
	return newMatrix(ctx, csr), nil
}

// SerializeSize returns the number of bytes Serialize needs
// (GrB_Vector_serializeSize).
func (v *Vector[T]) SerializeSize() (Index, error) {
	s, h, err := v.lendSorted()
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return serializeSize(serKindVector, []int{s.N}, nil, s.Ind, s.Val)
}

// Serialize writes the vector into buf (GrB_Vector_serialize).
func (v *Vector[T]) Serialize(buf []byte) (Index, error) {
	s, h, err := v.lendSorted()
	if err != nil {
		return 0, err
	}
	defer h.Release()
	return serializeInto(buf, serKindVector, []int{s.N}, nil, s.Ind, s.Val)
}

// SerializeBytes allocates and returns the serialized stream.
func (v *Vector[T]) SerializeBytes() ([]byte, error) {
	s, h, err := v.lendSorted()
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return serializeBytes(serKindVector, []int{s.N}, nil, s.Ind, s.Val)
}

// VectorDeserialize reconstructs a vector from a stream produced by
// Serialize (GrB_Vector_deserialize).
func VectorDeserialize[T any](data []byte, opts ...ObjOption) (*Vector[T], error) {
	var cfg objConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, err := resolveCtx(cfg.ctx)
	if err != nil {
		return nil, err
	}
	d := &decoder{rest: data}
	if err := header[T](d, serKindVector, "VectorDeserialize"); err != nil {
		return nil, err
	}
	n := d.int()
	ind := d.ints()
	nval := d.int()
	if d.bad || n <= 0 || nval != len(ind) {
		return nil, errf(InvalidObject, "VectorDeserialize: truncated or inconsistent stream")
	}
	vals, err := values[T](d, nval)
	if err != nil {
		return nil, err
	}
	vec := &sparse.Vec[T]{N: n, Ind: ind, Val: vals}
	if !vec.Valid() {
		return nil, errf(InvalidObject, "VectorDeserialize: stream describes an invalid vector")
	}
	vec.Claim(nil) // storage of its own, which a later step may write in place
	return newVector(ctx, vec), nil
}
