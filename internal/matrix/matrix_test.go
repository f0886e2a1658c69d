package matrix

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Dense {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set did not stick")
	}
	if m.RowSum(1) != 7 {
		t.Errorf("RowSum(1) = %v", m.RowSum(1))
	}
}

func TestMulIdentity(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	id := Identity(3)
	got, err := m.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("M*I != M at (%d,%d)", i, j)
			}
		}
	}
	if _, err := m.Mul(Identity(2)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := fromRows([][]float64{{8}, {-11}, {-3}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i, w := range want {
		if !almostEqual(x.At(i, 0), w, 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x.At(i, 0), w)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	b := fromRows([][]float64{{1}, {2}})
	if _, err := Solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestInverseProperty(t *testing.T) {
	// Property: for random diagonally-dominant matrices, A * A^-1 ~ I.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		n := 2 + int(seed%8)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64()-0.5)
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // ensure nonsingularity
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod, err := a.Mul(inv)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(prod.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFundamentalGamblersRuin(t *testing.T) {
	// Symmetric random walk on {0..4} absorbing at 0 and 4: from state i the
	// expected absorption time is i*(4-i).
	q := New(3, 3) // transient states 1, 2, 3
	q.Set(0, 1, 0.5)
	q.Set(1, 0, 0.5)
	q.Set(1, 2, 0.5)
	q.Set(2, 1, 0.5)
	times, err := AbsorptionTimes(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 3} // 1*3, 2*2, 3*1
	for i, w := range want {
		if !almostEqual(times[i], w, 1e-9) {
			t.Errorf("E[%d] = %v, want %v", i+1, times[i], w)
		}
	}
}

func TestFundamentalRejectsNonSquare(t *testing.T) {
	q := New(2, 3)
	if _, err := Fundamental(q); err == nil {
		t.Error("non-square Q accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

func TestSub(t *testing.T) {
	a := fromRows([][]float64{{5, 6}, {7, 8}})
	b := fromRows([][]float64{{1, 2}, {3, 4}})
	c, err := a.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 4 || c.At(1, 1) != 4 {
		t.Error("Sub wrong")
	}
	if _, err := a.Sub(Identity(3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
