package grb

import (
	"fmt"
	"strings"
)

// String renders a small matrix as a dense grid for debugging; large
// matrices render as a summary plus the leading tuples. Reading the matrix
// completes its sequence; if the sequence carries a parked error the error
// text is rendered instead (String must not fail).
func (m *Matrix[T]) String() string {
	if m == nil {
		return "Matrix(nil)"
	}
	if err := m.check(); err != nil {
		return "Matrix(uninitialized)"
	}
	if _, err := m.context(); err != nil {
		return "Matrix(<" + err.Error() + ">)"
	}
	c, err := m.snapshot()
	if err != nil {
		return "Matrix(<" + err.Error() + ">)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d, %d entries", c.Rows, c.Cols, c.NNZ())
	const gridLimit = 16
	if c.Rows <= gridLimit && c.Cols <= gridLimit {
		for i := 0; i < c.Rows; i++ {
			b.WriteString("\n  [")
			ind, val := c.Row(i)
			k := 0
			for j := 0; j < c.Cols; j++ {
				if k < len(ind) && ind[k] == j {
					fmt.Fprintf(&b, " %v", val[k])
					k++
				} else {
					b.WriteString(" .")
				}
			}
			b.WriteString(" ]")
		}
		return b.String()
	}
	// The leading entries, read off the rows: no copy of the other tuples.
	limit := min(10, c.NNZ())
	for i, k := 0, 0; k < limit; i++ {
		for ; k < min(c.Ptr[i+1], limit); k++ {
			fmt.Fprintf(&b, "\n  (%d,%d) = %v", i, c.Ind[k], c.Val[k])
		}
	}
	if c.NNZ() > limit {
		fmt.Fprintf(&b, "\n  ... %d more", c.NNZ()-limit)
	}
	return b.String()
}

// String renders a vector for debugging (see Matrix.String).
func (v *Vector[T]) String() string {
	if v == nil {
		return "Vector(nil)"
	}
	if err := v.check(); err != nil {
		return "Vector(uninitialized)"
	}
	if _, err := v.context(); err != nil {
		return "Vector(<" + err.Error() + ">)"
	}
	s, h, err := v.lend() // read in its own form, as VectorExportInto does
	if err != nil {
		return "Vector(<" + err.Error() + ">)"
	}
	defer h.Release()
	var b strings.Builder
	fmt.Fprintf(&b, "Vector size %d, %d entries", s.N, s.NNZ())
	limit := 16
	s.Each(func(i int, x T) bool {
		fmt.Fprintf(&b, "\n  (%d) = %v", i, x)
		limit--
		return limit > 0
	})
	if s.NNZ() > 16 {
		fmt.Fprintf(&b, "\n  ... %d more", s.NNZ()-16)
	}
	return b.String()
}

// String renders the scalar for debugging.
func (s *Scalar[T]) String() string {
	if s == nil {
		return "Scalar(nil)"
	}
	if err := s.check(); err != nil {
		return "Scalar(uninitialized)"
	}
	v, ok, err := s.ExtractElement()
	if err != nil {
		return "Scalar(<" + err.Error() + ">)"
	}
	if !ok {
		return "Scalar(empty)"
	}
	return fmt.Sprintf("Scalar(%v)", v)
}
