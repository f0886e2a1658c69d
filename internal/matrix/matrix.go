// Package matrix provides the small dense linear algebra needed by the
// Section 4 Markov-chain analysis: Gaussian elimination with partial
// pivoting for solving linear systems, matrix inversion, and the fundamental
// matrix N = (I - Q)^-1 whose row sums give expected absorption times
// (Isaacson & Madsen 1976, cited as [Isaa76] in the paper).
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows-by-cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// RowSum returns the sum of row i.
func (m *Dense) RowSum(i int) float64 {
	sum := 0.0
	for j := 0; j < m.cols; j++ {
		sum += m.At(i, j)
	}
	return sum
}

// Mul returns the matrix product m*b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("matrix: mul dimension mismatch %dx%d * %dx%d",
			m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for kk := 0; kk < m.cols; kk++ {
			a := m.At(i, kk)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.At(kk, j)
			}
		}
	}
	return out, nil
}

// Sub returns m - b.
func (m *Dense) Sub(b *Dense) (*Dense, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("matrix: sub dimension mismatch %dx%d - %dx%d",
			m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out, nil
}

// Solve solves A x = b for x via Gaussian elimination with partial pivoting,
// where b has one column per right-hand side. A must be square.
func Solve(a *Dense, b *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("matrix: solve needs square A, got %dx%d", a.rows, a.cols)
	}
	if b.rows != n {
		return nil, fmt.Errorf("matrix: rhs has %d rows, want %d", b.rows, n)
	}
	// Work on augmented copies.
	aw := a.Clone()
	bw := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		if pivot != col {
			aw.swapRows(pivot, col)
			bw.swapRows(pivot, col)
		}
		pv := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aw.At(r, col) / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aw.Set(r, c, aw.At(r, c)-f*aw.At(col, c))
			}
			for c := 0; c < bw.cols; c++ {
				bw.Set(r, c, bw.At(r, c)-f*bw.At(col, c))
			}
		}
	}
	// Back substitution.
	x := New(n, bw.cols)
	for c := 0; c < bw.cols; c++ {
		for r := n - 1; r >= 0; r-- {
			sum := bw.At(r, c)
			for j := r + 1; j < n; j++ {
				sum -= aw.At(r, j) * x.At(j, c)
			}
			x.Set(r, c, sum/aw.At(r, r))
		}
	}
	return x, nil
}

func (m *Dense) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// Inverse returns A^-1.
func Inverse(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: inverse needs square matrix, got %dx%d", a.rows, a.cols)
	}
	return Solve(a, Identity(a.rows))
}

// Fundamental computes the fundamental matrix N = (I - Q)^-1 of an absorbing
// Markov chain, where Q is the transient-to-transient transition submatrix.
// Row sums of N are the expected numbers of steps to absorption starting in
// each transient state ([Isaa76], used in Section 4.1 eq. (12)-(13)).
func Fundamental(q *Dense) (*Dense, error) {
	if q.rows != q.cols {
		return nil, fmt.Errorf("matrix: fundamental needs square Q, got %dx%d", q.rows, q.cols)
	}
	iq, err := Identity(q.rows).Sub(q)
	if err != nil {
		return nil, err
	}
	n, err := Inverse(iq)
	if err != nil {
		return nil, fmt.Errorf("fundamental matrix: %w", err)
	}
	return n, nil
}

// AbsorptionTimes returns the vector of expected steps to absorption from
// each transient state: the row sums of the fundamental matrix of Q.
func AbsorptionTimes(q *Dense) ([]float64, error) {
	n, err := Fundamental(q)
	if err != nil {
		return nil, err
	}
	times := make([]float64, n.rows)
	for i := range times {
		times[i] = n.RowSum(i)
	}
	return times, nil
}
