package grb

import (
	"testing"
)

func TestSerializeMatrixRoundTrip(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 3, 4,
		[]Index{0, 1, 2}, []Index{3, 0, 2}, []float64{1.5, -2, 1e300})
	size, err := m.SerializeSize()
	if err != nil || size <= 0 {
		t.Fatalf("size = %d, %v", size, err)
	}
	buf := make([]byte, size)
	n, err := m.Serialize(buf)
	if err != nil || n != size {
		t.Fatalf("serialize = %d, %v", n, err)
	}
	back, err := MatrixDeserialize[float64](buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	matrixEquals(t, back, []Index{0, 1, 2}, []Index{3, 0, 2}, []float64{1.5, -2, 1e300})
	// buffer too small
	if _, err := m.Serialize(make([]byte, size-1)); Code(err) != InsufficientSpace {
		t.Fatalf("small buffer: %v", err)
	}
}

func TestSerializeDomains(t *testing.T) {
	setMode(t, Blocking)
	// every predefined numeric domain plus bool round-trips
	checkRT := func(t *testing.T, build func() ([]byte, error), verify func([]byte) error) {
		blob, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(blob); err != nil {
			t.Fatal(err)
		}
	}
	mi8 := ck1(NewMatrix[int8](2, 2))
	ck(mi8.Build([]Index{0, 1}, []Index{1, 0}, []int8{-5, 100}, nil))
	checkRT(t, mi8.SerializeBytes, func(b []byte) error {
		back, err := MatrixDeserialize[int8](b)
		if err != nil {
			return err
		}
		if v, _ := ck2(back.ExtractElement(0, 1)); v != -5 {
			t.Fatal("int8 value")
		}
		return nil
	})
	mu := ck1(NewMatrix[uint64](2, 2))
	ck(mu.Build([]Index{0}, []Index{0}, []uint64{1 << 63}, nil))
	checkRT(t, mu.SerializeBytes, func(b []byte) error {
		back, err := MatrixDeserialize[uint64](b)
		if err != nil {
			return err
		}
		if v, _ := ck2(back.ExtractElement(0, 0)); v != 1<<63 {
			t.Fatal("uint64 value")
		}
		return nil
	})
	mb := ck1(NewMatrix[bool](2, 2))
	ck(mb.Build([]Index{0, 1}, []Index{0, 1}, []bool{true, false}, nil))
	checkRT(t, mb.SerializeBytes, func(b []byte) error {
		back, err := MatrixDeserialize[bool](b)
		if err != nil {
			return err
		}
		if v, _ := ck2(back.ExtractElement(1, 1)); v != false {
			t.Fatal("bool value")
		}
		if v, _ := ck2(back.ExtractElement(0, 0)); v != true {
			t.Fatal("bool value 2")
		}
		return nil
	})
	mf32 := ck1(NewMatrix[float32](1, 1))
	ck(mf32.Build([]Index{0}, []Index{0}, []float32{3.25}, nil))
	checkRT(t, mf32.SerializeBytes, func(b []byte) error {
		back, err := MatrixDeserialize[float32](b)
		if err != nil {
			return err
		}
		if v, _ := ck2(back.ExtractElement(0, 0)); v != 3.25 {
			t.Fatal("float32 value")
		}
		return nil
	})
}

// TestSerializeUserDefinedDomain exercises the gob fallback path for
// user-defined domains (the spec allows any domain in a serialized stream).
func TestSerializeUserDefinedDomain(t *testing.T) {
	setMode(t, Blocking)
	type edge struct {
		W float64
		L string
	}
	m := ck1(NewMatrix[edge](2, 2))
	if err := m.Build([]Index{0, 1}, []Index{1, 0},
		[]edge{{1.5, "a"}, {2.5, "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := m.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := MatrixDeserialize[edge](blob)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ck2(back.ExtractElement(1, 0))
	if !ok || v != (edge{2.5, "b"}) {
		t.Fatalf("user-defined round trip: %v,%v", v, ok)
	}
}

func TestSerializeDomainMismatch(t *testing.T) {
	setMode(t, Blocking)
	m := mustMatrix(t, 2, 2, []Index{0}, []Index{0}, []float64{1})
	blob := ck1(m.SerializeBytes())
	if _, err := MatrixDeserialize[int32](blob); Code(err) != DomainMismatch {
		t.Fatalf("wrong domain: %v", err)
	}
	v := mustVector(t, 3, []Index{0}, []int{1})
	vb := ck1(v.SerializeBytes())
	if _, err := VectorDeserialize[float64](vb); Code(err) != DomainMismatch {
		t.Fatalf("vector wrong domain: %v", err)
	}
	// matrix stream into vector deserializer and vice versa
	if _, err := VectorDeserialize[float64](blob); Code(err) != InvalidObject {
		t.Fatalf("kind confusion: %v", err)
	}
	if _, err := MatrixDeserialize[int](vb); Code(err) != InvalidObject {
		t.Fatalf("kind confusion 2: %v", err)
	}
}

func TestDeserializeCorruptStreams(t *testing.T) {
	setMode(t, Blocking)
	if _, err := MatrixDeserialize[int](nil); Code(err) != InvalidObject {
		t.Fatalf("nil data: %v", err)
	}
	if _, err := MatrixDeserialize[int]([]byte("garbage!")); Code(err) != InvalidObject {
		t.Fatalf("garbage: %v", err)
	}
	m := mustMatrix(t, 2, 2, []Index{0, 1}, []Index{0, 1}, []int{1, 2})
	blob := ck1(m.SerializeBytes())
	// truncations at every prefix must fail cleanly, never panic
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := MatrixDeserialize[int](blob[:cut]); err == nil {
			t.Fatalf("truncated stream at %d accepted", cut)
		}
	}
}

func TestSerializeVectorRoundTrip(t *testing.T) {
	setMode(t, Blocking)
	v := mustVector(t, 6, []Index{1, 4, 5}, []int32{-1, 0, 7})
	size, err := v.SerializeSize()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	n, err := v.Serialize(buf)
	if err != nil || n != size {
		t.Fatalf("%d %v", n, err)
	}
	back, err := VectorDeserialize[int32](buf)
	if err != nil {
		t.Fatal(err)
	}
	vectorEquals(t, back, []Index{1, 4, 5}, []int32{-1, 0, 7})
	if _, err := v.Serialize(make([]byte, 3)); Code(err) != InsufficientSpace {
		t.Fatalf("small buf: %v", err)
	}
}

// TestSerializeRoundTripProperty: serialize ∘ deserialize is a step of the
// program generator (progen_test.go).
func TestSerializeRoundTripProperty(t *testing.T) {
	matrixKit(t, kitPlusPair, serial, gExport, gExportM)
}
