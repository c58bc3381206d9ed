package grb

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// The stream format is pinned: a serialized blob may outlive the binary that
// wrote it (§VII-B: shipped over a wire, parked on disk). The hex below was
// produced by the encoder of the commit before the write-once encoder landed
// (223a504), from goldenMatrix and goldenVector over three values a domain.
// The current encoder must reproduce it byte for byte and the current decoder
// must read it back.
var goldenStreams = map[string][2]string{ // typeName -> {matrix, vector}
	"bool": {
		"475242322e304d0400000000000000626f6f6c03000000000000000400000000000000040000000000000000000000000000000100000000000000020000000000000003000000000000000300000000000000000000000000000002000000000000000300000000000000030000000000000000000101",
		"475242322e30560400000000000000626f6f6c06000000000000000300000000000000010000000000000004000000000000000500000000000000030000000000000000010001",
	},
	"int8": {
		"475242322e304d0400000000000000696e743803000000000000000400000000000000040000000000000000000000000000000100000000000000020000000000000003000000000000000300000000000000000000000000000002000000000000000300000000000000030000000000000000ff7f80",
		"475242322e30560400000000000000696e74380600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000080ff7f",
	},
	"uint8": {
		"475242322e304d050000000000000075696e74380300000000000000040000000000000004000000000000000000000000000000010000000000000002000000000000000300000000000000030000000000000000000000000000000200000000000000030000000000000003000000000000000080ff01",
		"475242322e3056050000000000000075696e7438060000000000000003000000000000000100000000000000040000000000000005000000000000000300000000000000000180ff",
	},
	"int16": {
		"475242322e304d0500000000000000696e743136030000000000000004000000000000000400000000000000000000000000000001000000000000000200000000000000030000000000000003000000000000000000000000000000020000000000000003000000000000000300000000000000000100ff7f0080",
		"475242322e30560500000000000000696e7431360600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000000800100ff7f",
	},
	"uint16": {
		"475242322e304d060000000000000075696e743136030000000000000004000000000000000400000000000000000000000000000001000000000000000200000000000000030000000000000003000000000000000000000000000000020000000000000003000000000000000300000000000000000080ffff0001",
		"475242322e3056060000000000000075696e7431360600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000000010080ffff",
	},
	"int32": {
		"475242322e304d0500000000000000696e74333203000000000000000400000000000000040000000000000000000000000000000100000000000000020000000000000003000000000000000300000000000000000000000000000002000000000000000300000000000000030000000000000000feffffffffffff7f00000080",
		"475242322e30560500000000000000696e7433320600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000000000080feffffffffffff7f",
	},
	"uint32": {
		"475242322e304d060000000000000075696e7433320300000000000000040000000000000004000000000000000000000000000000010000000000000002000000000000000300000000000000030000000000000000000000000000000200000000000000030000000000000003000000000000000000000080ffffffff00000001",
		"475242322e3056060000000000000075696e743332060000000000000003000000000000000100000000000000040000000000000005000000000000000300000000000000000000000100000080ffffffff",
	},
	"int64": {
		"475242322e304d0500000000000000696e74363403000000000000000400000000000000040000000000000000000000000000000100000000000000020000000000000003000000000000000300000000000000000000000000000002000000000000000300000000000000030000000000000000fdffffffffffffffffffffffffffff7f0000000000000080",
		"475242322e30560500000000000000696e743634060000000000000003000000000000000100000000000000040000000000000005000000000000000300000000000000000000000000000080fdffffffffffffffffffffffffffff7f",
	},
	"uint64": {
		"475242322e304d060000000000000075696e743634030000000000000004000000000000000400000000000000000000000000000001000000000000000200000000000000030000000000000003000000000000000000000000000000020000000000000003000000000000000300000000000000000000000000000080ffffffffffffffff0000000000000001",
		"475242322e3056060000000000000075696e7436340600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000000000000000000010000000000000080ffffffffffffffff",
	},
	"int": {
		"475242322e304d0300000000000000696e7403000000000000000400000000000000040000000000000000000000000000000100000000000000020000000000000003000000000000000300000000000000000000000000000002000000000000000300000000000000030000000000000000fcffffffffffffff00000000000100000000000000000080",
		"475242322e30560300000000000000696e74060000000000000003000000000000000100000000000000040000000000000005000000000000000300000000000000000000000000000080fcffffffffffffff0000000000010000",
	},
	"uint": {
		"475242322e304d040000000000000075696e74030000000000000004000000000000000400000000000000000000000000000001000000000000000200000000000000030000000000000003000000000000000000000000000000020000000000000003000000000000000300000000000000000700000000000000ffffffffffffffff0000000000000100",
		"475242322e3056040000000000000075696e740600000000000000030000000000000001000000000000000400000000000000050000000000000003000000000000000000000000000001000700000000000000ffffffffffffffff",
	},
	"float32": {
		"475242322e304d0700000000000000666c6f617433320300000000000000040000000000000004000000000000000000000000000000010000000000000002000000000000000300000000000000030000000000000000000000000000000200000000000000030000000000000003000000000000000000005040ffff7f7f000000bf",
		"475242322e30560700000000000000666c6f6174333206000000000000000300000000000000010000000000000004000000000000000500000000000000030000000000000000000000bf00005040ffff7f7f",
	},
	"float64": {
		"475242322e304d0700000000000000666c6f61743634030000000000000004000000000000000400000000000000000000000000000001000000000000000200000000000000030000000000000003000000000000000000000000000000020000000000000003000000000000000300000000000000000100000000000000182d4454fb2109409c7500883ce437fe",
		"475242322e30560700000000000000666c6f61743634060000000000000003000000000000000100000000000000040000000000000005000000000000000300000000000000009c7500883ce437fe0100000000000000182d4454fb210940",
	},
}

var (
	goldenI   = []Index{2, 0, 1} // unsorted on purpose: Build orders them
	goldenJ   = []Index{3, 0, 2}
	goldenInd = []Index{1, 4, 5}
)

func goldenMatrix[T any](t *testing.T, vals [3]T) *Matrix[T] {
	return mustMatrix(t, 3, 4, goldenI, goldenJ, vals[:])
}

func goldenVector[T any](t *testing.T, vals [3]T) *Vector[T] {
	return mustVector(t, 6, goldenInd, vals[:])
}

// goldenDomain checks one domain both ways against its pinned streams.
func goldenDomain[T comparable](t *testing.T, vals [3]T) {
	t.Helper()
	name := typeName[T]()
	want, ok := goldenStreams[name]
	if !ok {
		t.Fatalf("%s: no golden stream checked in", name)
	}
	m, v := goldenMatrix(t, vals), goldenVector(t, vals)
	if got := hex.EncodeToString(ck1(m.SerializeBytes())); got != want[0] {
		t.Errorf("%s matrix stream changed:\n got %s\nwant %s", name, got, want[0])
	}
	if got := hex.EncodeToString(ck1(v.SerializeBytes())); got != want[1] {
		t.Errorf("%s vector stream changed:\n got %s\nwant %s", name, got, want[1])
	}
	if n := ck1(m.SerializeSize()); n != len(want[0])/2 {
		t.Errorf("%s matrix SerializeSize = %d, stream is %d bytes", name, n, len(want[0])/2)
	}
	if n := ck1(v.SerializeSize()); n != len(want[1])/2 {
		t.Errorf("%s vector SerializeSize = %d, stream is %d bytes", name, n, len(want[1])/2)
	}
	mb, err := MatrixDeserialize[T](ck1(hex.DecodeString(want[0])))
	if err != nil {
		t.Fatalf("%s: golden matrix stream rejected: %v", name, err)
	}
	// Row-major order of goldenI/goldenJ: (0,0)=vals[1], (1,2)=vals[2], (2,3)=vals[0].
	matrixEquals(t, mb, []Index{0, 1, 2}, []Index{0, 2, 3}, []T{vals[1], vals[2], vals[0]})
	vb, err := VectorDeserialize[T](ck1(hex.DecodeString(want[1])))
	if err != nil {
		t.Fatalf("%s: golden vector stream rejected: %v", name, err)
	}
	vectorEquals(t, vb, goldenInd, vals[:])
}

func TestSerializeGoldenStreams(t *testing.T) {
	setMode(t, Blocking)
	goldenDomain(t, [3]bool{true, false, true})
	goldenDomain(t, [3]int8{math.MinInt8, -1, math.MaxInt8})
	goldenDomain(t, [3]uint8{1, 128, math.MaxUint8})
	goldenDomain(t, [3]int16{math.MinInt16, 1, math.MaxInt16})
	goldenDomain(t, [3]uint16{256, 1 << 15, math.MaxUint16})
	goldenDomain(t, [3]int32{math.MinInt32, -2, math.MaxInt32})
	goldenDomain(t, [3]uint32{1 << 24, 1 << 31, math.MaxUint32})
	goldenDomain(t, [3]int64{math.MinInt64, -3, math.MaxInt64})
	goldenDomain(t, [3]uint64{1 << 56, 1 << 63, math.MaxUint64})
	goldenDomain(t, [3]int{math.MinInt64, -4, 1 << 40})
	goldenDomain(t, [3]uint{1 << 48, 7, math.MaxUint64})
	goldenDomain(t, [3]float32{-0.5, 3.25, math.MaxFloat32})
	goldenDomain(t, [3]float64{-1e300, math.SmallestNonzeroFloat64, math.Pi})
}

// rejectsEveryPrefix: a stream cut anywhere is a truncated stream. The uint8
// payload used to be read with one bytes.Reader.Read, whose short count comes
// with a nil error, so a cut inside it deserialized with the missing values
// zero.
func rejectsEveryPrefix[T any](t *testing.T) {
	t.Helper()
	name := typeName[T]()
	m, v := ck1(hex.DecodeString(goldenStreams[name][0])), ck1(hex.DecodeString(goldenStreams[name][1]))
	for cut := 0; cut < len(m); cut++ {
		if _, err := MatrixDeserialize[T](m[:cut]); Code(err) != InvalidObject {
			t.Errorf("%s matrix stream cut to %d of %d bytes: %v", name, cut, len(m), err)
		}
	}
	for cut := 0; cut < len(v); cut++ {
		if _, err := VectorDeserialize[T](v[:cut]); Code(err) != InvalidObject {
			t.Errorf("%s vector stream cut to %d of %d bytes: %v", name, cut, len(v), err)
		}
	}
}

func TestDeserializeTruncatedPayloadEveryDomain(t *testing.T) {
	setMode(t, Blocking)
	rejectsEveryPrefix[bool](t)
	rejectsEveryPrefix[int8](t)
	rejectsEveryPrefix[uint8](t)
	rejectsEveryPrefix[int16](t)
	rejectsEveryPrefix[uint16](t)
	rejectsEveryPrefix[int32](t)
	rejectsEveryPrefix[uint32](t)
	rejectsEveryPrefix[int64](t)
	rejectsEveryPrefix[uint64](t)
	rejectsEveryPrefix[int](t)
	rejectsEveryPrefix[uint](t)
	rejectsEveryPrefix[float32](t)
	rejectsEveryPrefix[float64](t)
}

// TestSerializeWritesOnce: the stream is sized by arithmetic, allocated once
// at that size or written straight into the caller's buffer, and read back
// with one allocation an array.
func TestSerializeWritesOnce(t *testing.T) {
	setMode(t, Blocking)
	rng := rand.New(rand.NewSource(16))
	n := 2000
	I, J, X := make([]Index, 8*n), make([]Index, 8*n), make([]float64, 8*n)
	for k := range I {
		I[k], J[k], X[k] = rng.Intn(n), rng.Intn(n), rng.Float64()
	}
	m := mustMatrix(t, n, n, I, J, X)
	blob := ck1(m.SerializeBytes())
	if len(blob) != cap(blob) || len(blob) != ck1(m.SerializeSize()) {
		t.Fatalf("SerializeBytes: len %d cap %d, SerializeSize %d", len(blob), cap(blob), ck1(m.SerializeSize()))
	}
	if a := testing.AllocsPerRun(5, func() { ck1(m.SerializeBytes()) }); a > 4 {
		t.Errorf("SerializeBytes: %.0f allocations, want <= 4", a)
	}
	if a := testing.AllocsPerRun(5, func() { ck1(m.SerializeSize()) }); a > 2 {
		t.Errorf("SerializeSize: %.0f allocations, want <= 2 (it must not build the stream)", a)
	}
	if a := testing.AllocsPerRun(5, func() { ck1(MatrixDeserialize[float64](blob)) }); a > 8 {
		t.Errorf("MatrixDeserialize: %.0f allocations, want <= 8", a)
	}
	// Serialize encodes into the caller's buffer, dirty or not, and leaves
	// what lies past the stream alone.
	buf := bytes.Repeat([]byte{0xAB}, len(blob)+3)
	if a := testing.AllocsPerRun(5, func() { ck1(m.Serialize(buf)) }); a > 3 {
		t.Errorf("Serialize: %.0f allocations, want <= 3", a)
	}
	if !bytes.Equal(buf[:len(blob)], blob) || !bytes.Equal(buf[len(blob):], []byte{0xAB, 0xAB, 0xAB}) {
		t.Fatal("Serialize(buf) did not write exactly the stream")
	}
	// The gob path keeps the same contract through the same entry points.
	type edge struct{ W float64 }
	g := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{1, 0}, []edge{{1.5}, {2.5}})
	size := ck1(g.SerializeSize())
	gbuf := make([]byte, size)
	if got := ck1(g.Serialize(gbuf)); got != size || !bytes.Equal(gbuf, ck1(g.SerializeBytes())) {
		t.Fatalf("gob Serialize wrote %d of %d bytes", got, size)
	}
	if _, err := g.Serialize(gbuf[:size-1]); Code(err) != InsufficientSpace {
		t.Fatalf("gob Serialize into a short buffer: %v", err)
	}
}
