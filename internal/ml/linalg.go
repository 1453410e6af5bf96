// Package ml implements the supervised-learning machinery of §6 and
// §8.3 from scratch on the standard library: ordinary least squares,
// Lasso (coordinate descent), random-forest regression (CART), and
// support-vector regression with an RBF kernel, together with scaling
// and the APE/MAPE/RMSE error metrics of the paper.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system cannot be solved.
var ErrSingular = errors.New("ml: singular system")

// solveLinear solves A x = b by Gaussian elimination with partial
// pivoting. A is n×n in row-major order and is modified in place, as is
// b; the solution is returned in a fresh slice.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("ml: solveLinear: shape mismatch (%d rows, %d rhs)", n, len(b))
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				piv, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// normalEquations builds XᵀX (+ ridge·I on non-intercept diagonals) and
// Xᵀy for the design matrix with a leading intercept column.
func normalEquations(x [][]float64, y []float64, ridge float64) ([][]float64, []float64) {
	n := len(x)
	d := len(x[0]) + 1 // +1 intercept
	ata := make([][]float64, d)
	for i := range ata {
		ata[i] = make([]float64, d)
	}
	aty := make([]float64, d)
	row := make([]float64, d)
	for r := 0; r < n; r++ {
		row[0] = 1
		copy(row[1:], x[r])
		for i := 0; i < d; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			for j := i; j < d; j++ {
				ata[i][j] += vi * row[j]
			}
			aty[i] += vi * y[r]
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	for i := 1; i < d; i++ {
		ata[i][i] += ridge
	}
	return ata, aty
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func checkXY(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return errors.New("ml: zero-dimensional features")
	}
	for i, r := range x {
		if len(r) != d {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(r), d)
		}
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d contains NaN/Inf", i)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: target %d is NaN/Inf", i)
		}
	}
	return nil
}
