// Package mtx reads and writes Matrix Market exchange files (the standard
// non-opaque interchange format for sparse matrices), complementing the
// GraphBLAS 2.0 import/export API: external tools produce .mtx files, this
// package turns them into coordinate arrays, and grb.MatrixImport builds
// GraphBLAS objects from them.
//
// Supported: "matrix coordinate real|integer|pattern general|symmetric".
package mtx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Coord holds a matrix in coordinate form as read from a Matrix Market file.
type Coord struct {
	Rows, Cols int
	I, J       []int
	X          []float64
	Pattern    bool // the file had no values (pattern field); X is all 1s
	Symmetric  bool // the file stored only one triangle; both are present in I/J/X
}

// ErrFormat reports a malformed Matrix Market stream.
var ErrFormat = errors.New("mtx: malformed Matrix Market data")

// maxPresize caps, in entries, how much of the nnz the size line declares is
// allocated before any entry has been read: a size line is a claim, and a
// hostile or corrupt one ("1 1 9000000000000000000") must not allocate ahead
// of the data. Files that really hold more grow by append from here. Measured
// on a 4 194 304-entry file (96 MB of arrays): presized in full 0.86 s, capped
// at 1<<20 and grown 0.89 s — the cap costs the honest large file 3 %, and
// bounds a lying one at 24 MB (48 MB symmetric).
const maxPresize = 1 << 20

// Read parses a Matrix Market stream. Symmetric files are expanded to both
// triangles (diagonal entries are not duplicated). White space is what
// strings.Fields splits on; blank lines and lines whose first character is
// '%' are skipped wherever they appear; fields after the value are ignored,
// as are lines after the declared number of entries. Malformed input fails
// with an error that wraps ErrFormat; an error from r is wrapped as it is,
// and is not an ErrFormat.
func Read(r io.Reader) (*Coord, error) {
	lr := lineReader{br: bufio.NewReaderSize(r, 64<<10)}
	first, err := lr.line()
	if err == io.EOF {
		return nil, fmt.Errorf("%w: empty input", ErrFormat)
	} else if err != nil {
		return nil, err
	}
	header := strings.Fields(strings.ToLower(string(first)))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, bytes.TrimSpace(first))
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
	sizeLine, _, _, err := lr.data()
	if err == io.EOF {
		return nil, fmt.Errorf("%w: missing size line", ErrFormat)
	} else if err != nil {
		return nil, err
	}
	parts := strings.Fields(string(sizeLine))
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, bytes.TrimSpace(sizeLine))
	}
	nr, err1 := strconv.Atoi(parts[0])
	nc, err2 := strconv.Atoi(parts[1])
	nnz, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || nr < 0 || nc < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: bad size line %q", ErrFormat, bytes.TrimSpace(sizeLine))
	}
	out := &Coord{Rows: nr, Cols: nc, Pattern: field == "pattern", Symmetric: sym == "symmetric"}
	room := min(nnz, maxPresize)
	if out.Symmetric {
		room *= 2
	}
	out.I, out.J, out.X = make([]int, 0, room), make([]int, 0, room), make([]float64, 0, room)
	for k := 0; k < nnz; k++ {
		line, ti, rest, err := lr.data()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrFormat, nnz, k)
		} else if err != nil {
			return nil, err
		}
		tj, rest := token(rest)
		tx := tj
		if !out.Pattern {
			tx, _ = token(rest)
		}
		if len(tx) == 0 {
			return nil, fmt.Errorf("%w: bad entry line %q", ErrFormat, bytes.TrimSpace(line))
		}
		i, ok1 := index(ti)
		j, ok2 := index(tj)
		if !ok1 || !ok2 || i < 1 || i > nr || j < 1 || j > nc {
			return nil, fmt.Errorf("%w: bad coordinates in %q", ErrFormat, bytes.TrimSpace(line))
		}
		x := 1.0
		if !out.Pattern {
			// ParseFloat does not retain its argument, so the conversion of a
			// token of ordinary length stays on the stack.
			if x, err = strconv.ParseFloat(string(tx), 64); err != nil {
				return nil, fmt.Errorf("%w: bad value in %q", ErrFormat, bytes.TrimSpace(line))
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

// lineReader hands out the lines of a stream as views into its buffer.
type lineReader struct {
	br   *bufio.Reader
	long []byte // holds a line longer than br's buffer, reused
}

// line returns the next line, terminator included, valid until the next call.
// A last line without a terminator counts; after it the error is io.EOF.
func (lr *lineReader) line() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	switch {
	case err == nil, err == io.EOF && len(line) > 0:
		return line, nil
	case err == io.EOF:
		return nil, io.EOF
	}
	return nil, fmt.Errorf("mtx: read: %w", err)
}

// data returns the next line that is neither blank nor a comment, with its
// first field and what follows that.
func (lr *lineReader) data() (line, first, rest []byte, err error) {
	for {
		if line, err = lr.line(); err != nil {
			return nil, nil, nil, err
		}
		if first, rest = token(line); len(first) > 0 && first[0] != '%' {
			return line, first, rest, nil
		}
	}
}

// token splits b into its first white-space-separated field and what
// follows. White space is what strings.Fields splits on: the six ASCII ones,
// looked up in class, and the Unicode ones, which unicode.IsSpace knows.
func token(b []byte) (tok, rest []byte) {
	start := 0
	for start < len(b) && class[b[start]] != plain {
		if class[b[start]] == wide {
			r, n := utf8.DecodeRune(b[start:])
			if !unicode.IsSpace(r) {
				break
			}
			start += n - 1
		}
		start++
	}
	end := start
	for end < len(b) && class[b[end]] != space {
		if class[b[end]] == wide {
			r, n := utf8.DecodeRune(b[end:])
			if unicode.IsSpace(r) {
				break
			}
			end += n - 1
		}
		end++
	}
	return b[start:end], b[end:]
}

// class sorts bytes into ASCII white space, bytes of multi-byte characters
// and the rest. A table, because the comparisons it stands for cost the three
// tokens of a typical entry line 80–100 ns against its 45.
const (
	plain = iota
	space
	wide
)

var class = func() (c [256]uint8) {
	for _, b := range " \t\n\v\f\r" {
		c[b] = space
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = wide
	}
	return c
}()

// index parses a 1-based index as strconv.Atoi would. Up to 18 digits cannot
// overflow and are read here; a longer token (leading zeros, or a number too
// large) is rare and goes to Atoi itself. A minus sign is refused: what it
// introduces could not pass the range check.
func index(tok []byte) (int, bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '+' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		v, err := strconv.Atoi(string(tok))
		return v, err == nil
	}
	v := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// Write emits a "matrix coordinate real general" Matrix Market stream.
func Write(w io.Writer, rows, cols int, I, J []int, X []float64) error {
	if len(I) != len(J) || len(I) != len(X) {
		return fmt.Errorf("mtx: unequal slice lengths")
	}
	return write(w, "real", rows, cols, I, J, X)
}

// WritePattern emits a "matrix coordinate pattern general" stream (indices
// only).
func WritePattern(w io.Writer, rows, cols int, I, J []int) error {
	if len(I) != len(J) {
		return fmt.Errorf("mtx: unequal slice lengths")
	}
	return write(w, "pattern", rows, cols, I, J, nil)
}

// write renders every line into one reused buffer; values print as fmt's %g
// does. X is nil for a pattern stream.
func write(w io.Writer, field string, rows, cols int, I, J []int, X []float64) error {
	bw := bufio.NewWriter(w)
	line := append(append([]byte("%%MatrixMarket matrix coordinate "), field...), " general\n"...)
	line = strconv.AppendInt(line, int64(rows), 10)
	line = strconv.AppendInt(append(line, ' '), int64(cols), 10)
	line = strconv.AppendInt(append(line, ' '), int64(len(I)), 10)
	bw.Write(append(line, '\n')) // a failed write sticks; the loop or Flush reports it
	for k := range I {
		line = strconv.AppendInt(line[:0], int64(I[k]+1), 10)
		line = strconv.AppendInt(append(line, ' '), int64(J[k]+1), 10)
		if X != nil {
			line = strconv.AppendFloat(append(line, ' '), X[k], 'g', -1, 64)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}
