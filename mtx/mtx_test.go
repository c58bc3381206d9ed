package mtx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	I := []int{0, 1, 2}
	J := []int{2, 0, 1}
	X := []float64{1.5, -2, 3e10}
	if err := Write(&buf, 3, 4, I, J, X); err != nil {
		t.Fatal(err)
	}
	c, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 4 || len(c.I) != 3 {
		t.Fatalf("shape %dx%d nnz %d", c.Rows, c.Cols, len(c.I))
	}
	for k := range I {
		if c.I[k] != I[k] || c.J[k] != J[k] || c.X[k] != X[k] {
			t.Fatalf("entry %d mismatch", k)
		}
	}
	if c.Pattern || c.Symmetric {
		t.Fatal("flags wrong")
	}
}

func TestPatternRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePattern(&buf, 2, 2, []int{0, 1}, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	c, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Pattern || len(c.X) != 2 || c.X[0] != 1 {
		t.Fatalf("pattern read: %+v", c)
	}
}

func TestSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 5.0
2 1 1.5
3 2 2.5
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// diagonal not duplicated; off-diagonals mirrored: 1 + 2*2 = 5 entries
	if len(c.I) != 5 {
		t.Fatalf("expanded nnz = %d, want 5", len(c.I))
	}
	if !c.Symmetric {
		t.Fatal("symmetric flag lost")
	}
	found := false
	for k := range c.I {
		if c.I[k] == 0 && c.J[k] == 1 && c.X[k] == 1.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("mirrored entry missing")
	}
}

func TestIntegerField(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.X[0] != 7 {
		t.Fatalf("integer value %v", c.X[0])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                             // empty
		"%%Wrong header\n2 2 1\n1 1 1", // bad banner
		"%%MatrixMarket matrix array real general\n2 2\n1\n1\n1\n1",          // array format
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0",   // complex
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1", // skew
		"%%MatrixMarket matrix coordinate real general\n",                    // no size
		"%%MatrixMarket matrix coordinate real general\n2 2\n",               // short size
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",      // missing entry
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n",      // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",    // bad value
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",          // short entry
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); !errors.Is(err, ErrFormat) {
			t.Errorf("case %d: err = %v, want ErrFormat", i, err)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 2, 2, []int{0}, []int{0, 1}, []float64{1}); err == nil {
		t.Fatal("unequal slices accepted")
	}
	if err := WritePattern(&buf, 2, 2, []int{0}, []int{0, 1}); err == nil {
		t.Fatal("unequal slices accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% comment one

% comment two
2 2 2

1 1 1.0
% interleaved comment
2 2 2.0
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.I) != 2 || c.X[1] != 2 {
		t.Fatalf("parsed %d entries", len(c.I))
	}
}

// readReference is the reader this package shipped before the byte-level one
// (bufio.Scanner + strings.Fields per line), kept verbatim as the oracle the
// new reader is compared against.
func readReference(r io.Reader) (*Coord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty input", ErrFormat)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("%w: only coordinate format supported, got %q", ErrFormat, header[2])
	}
	field := header[3]
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("%w: unsupported field %q", ErrFormat, field)
	}
	sym := header[4]
	if sym != "general" && sym != "symmetric" {
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrFormat, sym)
	}
	// Skip comments, find size line.
	var sizeLine string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		sizeLine = line
		break
	}
	if sizeLine == "" {
		return nil, fmt.Errorf("%w: missing size line", ErrFormat)
	}
	parts := strings.Fields(sizeLine)
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, sizeLine)
	}
	nr, err1 := strconv.Atoi(parts[0])
	nc, err2 := strconv.Atoi(parts[1])
	nnz, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || nr < 0 || nc < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, sizeLine)
	}
	out := &Coord{Rows: nr, Cols: nc, Pattern: field == "pattern", Symmetric: sym == "symmetric"}
	for k := 0; k < nnz; k++ {
		var line string
		for sc.Scan() {
			line = strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "%") {
				break
			}
			line = ""
		}
		if line == "" {
			return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrFormat, nnz, k)
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("%w: bad entry line %q", ErrFormat, line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || i < 1 || i > nr || j < 1 || j > nc {
			return nil, fmt.Errorf("%w: bad coordinates in %q", ErrFormat, line)
		}
		x := 1.0
		if field != "pattern" {
			x, err1 = strconv.ParseFloat(f[2], 64)
			if err1 != nil {
				return nil, fmt.Errorf("%w: bad value in %q", ErrFormat, line)
			}
		}
		out.I = append(out.I, i-1)
		out.J = append(out.J, j-1)
		out.X = append(out.X, x)
		if out.Symmetric && i != j {
			out.I = append(out.I, j-1)
			out.J = append(out.J, i-1)
			out.X = append(out.X, x)
		}
	}
	return out, nil
}

const (
	realGeneral = "%%MatrixMarket matrix coordinate real general\n"
	// hostileSizes declare far more entries than the stream holds.
	hostileGeneral   = realGeneral + "1 1 9000000000000000000\n1 1 1\n"
	hostileSymmetric = "%%MatrixMarket matrix coordinate real symmetric\n3 3 9223372036854775807\n2 1 1\n"
)

// readCorpus is the hand-written half of the differential corpus: every
// header variant, every lexical liberty the old reader took, every error
// class. FuzzRead starts from it too. The first validFiles of them parse.
const validFiles = 24

var readCorpus = []string{
	realGeneral + "3 4 3\n1 3 1.5\n2 1 -2\n3 2 3e10\n",
	"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -3\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
	"%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 3\n1 1 5.0\n2 1 1.5\n3 2 2.5\n",
	"%%MATRIXMARKET MATRIX Coordinate Real General extra words\n1 1 1\n1 1 1\n",
	"  %%MatrixMarket\tmatrix coordinate real general\r\n1 1 1\r\n1 1 1\r\n",
	realGeneral + "% one\n\n   \n% two\n2 2 2\n\n1 1 1.0\n  % indented comment\n\t\n2 2 2.0\n",
	realGeneral + "2 2 2\r\n1 1 1\r\n2 2 2\r\n",
	realGeneral + "2\t2\t2\n1\t1\t1\n\t2 \t 2\t2  \n",
	realGeneral + "2 2 1\n+2 +1 +3\n",
	realGeneral + "2 2 1\n1 1 4 extra columns 9 %\n",
	realGeneral + "2 2 2\n1 1 inf\n2 2 -Infinity\n",
	realGeneral + "2 2 1\n1 1 nan\n",
	realGeneral + "2 2 1\n1 1 0x1p-2\n",
	realGeneral + "2 2 1\n1 1 1",                   // no final newline
	realGeneral + "2 2 1\n1 1 1\r",                 // CR at EOF
	realGeneral + "2 2 1\n1 1 1\ntrailing garbage", // lines after nnz are ignored
	realGeneral + "2 2 1\n1 1 1\n2 2 2\n",          // too many entries
	realGeneral + "2 2 0\n",
	realGeneral + "0 0 0\n",
	realGeneral + "2 2 1\n007 0002 1\n",
	realGeneral + "2 2 1\n1 1 2.5\u00a0\n",                               // NBSP is white space to strings.Fields
	realGeneral + "2 2 1\n\u20031\u30001 7\n",                            // and so are these
	realGeneral + "2 2 1\n1 1 2\xa0\n",                                   // a lone 0xA0 is not
	"%%MatrixMar\u212aet matrix coordinate real general\n1 1 1\n1 1 1\n", // Kelvin sign lowers to k
	"", "\n", "\n" + realGeneral + "1 1 1\n1 1 1\n",
	"%%Wrong header\n2 2 1\n1 1 1",
	"%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1\n",
	"%%MatrixMarket matrix array real general\n2 2\n1\n1\n1\n1",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0",
	"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1",
	realGeneral,
	realGeneral + "% only comments\n\n",
	realGeneral + "2 2\n",
	realGeneral + "2 2 2 2\n",
	realGeneral + "2 2 -1\n",
	realGeneral + "2 x 1\n1 1 1\n",
	realGeneral + "99999999999999999999 1 1\n1 1 1\n",
	realGeneral + "2 2 2\n1 1 1\n", // too few entries
	realGeneral + "2 2 1\n5 1 1\n", // row out of range
	realGeneral + "2 2 1\n1 3 1\n", // column out of range
	realGeneral + "2 2 1\n0 1 1\n", // zero index
	realGeneral + "2 2 1\n1 -1 1\n",
	realGeneral + "2 2 1\n-0 1 1\n",
	realGeneral + "2 2 1\n1.0 1 1\n",
	realGeneral + "2 2 1\n+ 1 1\n",
	realGeneral + "2 2 1\n++1 1 1\n",
	realGeneral + "2 2 1\n1_0 1 1\n",
	realGeneral + "2 2 1\n9223372036854775808 1 1\n",
	realGeneral + "2 2 1\n18446744073709551617 1 1\n", // wraps to 1 if overflow goes unchecked
	realGeneral + "2 2 1\n1 1 xyz\n",
	realGeneral + "2 2 1\n1 1 1e400\n", // out of range is an error to ParseFloat
	realGeneral + "2 2 1\n1 1 0x10\n",  // hex needs a p exponent
	realGeneral + "2 2 1\n1 1 1_000\n",
	realGeneral + "2 2 1\n1 1\n",
	realGeneral + "2 2 1\n1\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
	hostileGeneral,
	hostileSymmetric,
}

// sameAsReference fails the test unless Read and readReference agree on src:
// equal Coords, or errors with the same ErrFormat verdict.
func sameAsReference(t *testing.T, src []byte) {
	t.Helper()
	got, gerr := Read(bytes.NewReader(src))
	want, werr := readReference(bytes.NewReader(src))
	if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrFormat) != errors.Is(werr, ErrFormat) {
		t.Fatalf("%q:\n Read error %v\n reference error %v", src, gerr, werr)
	}
	if gerr != nil {
		return
	}
	// The reference leaves I/J/X nil when there are no entries.
	if len(got.I) == 0 && len(want.I) == 0 {
		got.I, got.J, got.X = want.I, want.J, want.X
	}
	if !reflect.DeepEqual(floatBits(got), floatBits(want)) {
		t.Fatalf("%q:\n Read %+v\n reference %+v", src, got, want)
	}
}

// floatBits swaps X for its bit patterns so that DeepEqual holds NaN equal
// to itself and -0 apart from +0.
func floatBits(c *Coord) [2]any {
	bits := make([]uint64, len(c.X))
	for k, x := range c.X {
		bits[k] = math.Float64bits(x)
	}
	shape := *c
	shape.X = nil
	return [2]any{shape, bits}
}

func TestReadMatchesReference(t *testing.T) {
	for _, src := range readCorpus {
		sameAsReference(t, []byte(src))
	}
	// Seeded byte mutations of the valid files: overwrite, insert or delete
	// one to three bytes, biased towards the characters the grammar cares
	// about.
	alphabet := []byte(" \t\r\n%+-.0123456789eEinfaNx_\xa0\xc2")
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3000; trial++ { // the reference allocates 1 MiB a call
		mut := []byte(readCorpus[rng.Intn(validFiles)])
		for f := 1 + rng.Intn(3); f > 0 && len(mut) > 0; f-- {
			at, b := rng.Intn(len(mut)), alphabet[rng.Intn(len(alphabet))]
			switch rng.Intn(3) {
			case 0:
				mut[at] = b
			case 1:
				mut = append(mut[:at], append([]byte{b}, mut[at:]...)...)
			default:
				mut = append(mut[:at], mut[at+1:]...)
			}
		}
		sameAsReference(t, mut)
	}
}

func FuzzRead(f *testing.F) {
	for _, src := range readCorpus {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) { sameAsReference(t, src) })
}

// TestReadHostileSizeLine: the declared nnz is a claim; it must not drive an
// allocation ahead of the data.
func TestReadHostileSizeLine(t *testing.T) {
	for _, src := range []string{hostileGeneral, hostileSymmetric} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%q: err = %v, want ErrFormat", src, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
			t.Fatalf("%q: Read allocated %d bytes for one entry", src, got)
		}
	}
}

// TestReadReportsReaderError: an error from the underlying reader reaches
// the caller wrapped, and is not mistaken for malformed input.
func TestReadReportsReaderError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Read(iotest.ErrReader(boom)); !errors.Is(err, boom) || errors.Is(err, ErrFormat) {
		t.Fatalf("ErrReader: err = %v", err)
	}
	var text bytes.Buffer
	n := 5000 // more than one buffer's worth, so the second read is mid-file
	I, J, X := make([]int, n), make([]int, n), make([]float64, n)
	for k := range I {
		I[k], J[k], X[k] = k, (7*k)%n, float64(k)/3
	}
	if err := Write(&text, n, n, I, J, X); err != nil {
		t.Fatal(err)
	}
	_, err := Read(iotest.TimeoutReader(bufio.NewReaderSize(bytes.NewReader(text.Bytes()), 16)))
	if !errors.Is(err, iotest.ErrTimeout) || errors.Is(err, ErrFormat) {
		t.Fatalf("TimeoutReader: err = %v", err)
	}
	// Short input with a healthy reader is still a format error.
	if _, err := Read(bytes.NewReader(text.Bytes()[:text.Len()/2])); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated: err = %v", err)
	}
	// One byte per call changes nothing.
	c, err := Read(iotest.OneByteReader(bytes.NewReader(text.Bytes())))
	if err != nil || !reflect.DeepEqual(c, &Coord{Rows: n, Cols: n, I: I, J: J, X: X}) {
		t.Fatalf("OneByteReader: err = %v", err)
	}
}

// TestReadLongLines: no line is too long — a 3 MiB comment (the old scanner
// gave up at 1 MiB) and an entry line padded past the read buffer.
func TestReadLongLines(t *testing.T) {
	src := realGeneral + "%" + strings.Repeat("x", 3<<20) + "\n2 2 2\n1 1 1\n" +
		strings.Repeat(" ", 100<<10) + "2" + strings.Repeat("\t", 70<<10) + "2 2.5\n"
	c, err := Read(strings.NewReader(src))
	want := &Coord{Rows: 2, Cols: 2, I: []int{0, 1}, J: []int{0, 1}, X: []float64{1, 2.5}}
	if err != nil || !reflect.DeepEqual(c, want) {
		t.Fatalf("got %+v, %v", c, err)
	}
}

// TestReadAllocations: the reader allocates its buffer, the header's fields
// and the three output arrays — nothing per line.
func TestReadAllocations(t *testing.T) {
	for _, n := range []int{100, 20000} {
		var text bytes.Buffer
		I, J, X := make([]int, n), make([]int, n), make([]float64, n)
		for k := range I {
			I[k], J[k], X[k] = k, (7*k)%n, 0.001+float64(k)/3
		}
		if err := Write(&text, n, n, I, J, X); err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(nil)
		allocs := testing.AllocsPerRun(5, func() {
			rd.Reset(text.Bytes())
			if _, err := Read(rd); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("Read of %d entries: %.0f allocations, want <= 16", n, allocs)
		}
	}
}

// TestWriteMatchesFmt: Write renders lines without fmt; the bytes must be
// the ones fmt's %d and %g produce.
func TestWriteMatchesFmt(t *testing.T) {
	X := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, 1e20, 123456789012345678, 1e-7, 1e-4, 1e-5, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, 1, -1, 42, 1 << 53, 0.1, 1.0 / 3, 100000, 1e6, 2.5e-10}
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 1000; k++ {
		X = append(X, math.Float64frombits(rng.Uint64()))
	}
	I, J := make([]int, len(X)), make([]int, len(X))
	for k := range I {
		I[k], J[k] = rng.Intn(1<<40), rng.Intn(1000)
	}
	var want bytes.Buffer
	fmt.Fprintln(&want, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(&want, "%d %d %d\n", 1<<40, 1000, len(I))
	for k := range I {
		fmt.Fprintf(&want, "%d %d %g\n", I[k]+1, J[k]+1, X[k])
	}
	var got bytes.Buffer
	if err := Write(&got, 1<<40, 1000, I, J, X); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write differs from the fmt rendering:\n%s", firstDifference(got.Bytes(), want.Bytes()))
	}
	want.Reset()
	fmt.Fprintln(&want, "%%MatrixMarket matrix coordinate pattern general")
	fmt.Fprintf(&want, "%d %d %d\n", 1<<40, 1000, len(I))
	for k := range I {
		fmt.Fprintf(&want, "%d %d\n", I[k]+1, J[k]+1)
	}
	got.Reset()
	if err := WritePattern(&got, 1<<40, 1000, I, J); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePattern differs from the fmt rendering:\n%s", firstDifference(got.Bytes(), want.Bytes()))
	}
	// An empty matrix is a header and a size line.
	got.Reset()
	if err := Write(&got, 3, 4, nil, nil, nil); err != nil || got.String() != realGeneral+"3 4 0\n" {
		t.Fatalf("empty Write = %q, %v", got.String(), err)
	}
}

func firstDifference(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for k := range g {
		if k >= len(w) || !bytes.Equal(g[k], w[k]) {
			return fmt.Sprintf("line %d: got %q", k+1, g[k])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestWriteReportsWriterError: a failing writer stops Write.
func TestWriteReportsWriterError(t *testing.T) {
	boom := errors.New("boom")
	n := 10000 // past bufio's buffer, so the failure arrives inside the loop
	I, X := make([]int, n), make([]float64, n)
	if err := Write(failingWriter{boom}, n, n, I, I, X); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }
