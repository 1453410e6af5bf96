package ml

import "fmt"

// Regressor is the common interface of all models: fit on a design
// matrix (rows = samples) and predict single samples.
type Regressor interface {
	// Name identifies the algorithm ("Linear", "Lasso", "RandomForest",
	// "SVR_RBF").
	Name() string
	// Fit trains the model. Implementations must not retain x or y.
	Fit(x [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector.
	Predict(x []float64) float64
}

// BatchRegressor is implemented by models with a vectorised prediction
// path: PredictInto fills dst[i] with the prediction for rows[i]
// without allocating. dst must be at least as long as rows.
type BatchRegressor interface {
	Regressor
	PredictInto(dst []float64, rows [][]float64)
}

// FitChecker is implemented by models that can report whether they are
// in a usable fitted state. The error is descriptive — it names the
// algorithm and what is missing — so the model layer can refuse to
// serve predictions from an unfit or corrupt model instead of silently
// returning garbage.
type FitChecker interface {
	CheckFitted() error
}

// CheckFitted reports whether a regressor is ready to predict. Models
// that do not implement FitChecker are assumed fitted.
func CheckFitted(r Regressor) error {
	if r == nil {
		return fmt.Errorf("ml: nil regressor")
	}
	if c, ok := r.(FitChecker); ok {
		return c.CheckFitted()
	}
	return nil
}

// CheckWidth reports whether a regressor reads at most the first d
// values of a feature vector, so a d-wide row cannot send it out of
// bounds: a linear model has d coefficients, a forest splits only on
// features below d, and an SVR has a d-wide scaler and d-wide support
// vectors, one weight each. Models of other types pass.
func CheckWidth(r Regressor, d int) error {
	switch m := r.(type) {
	case *Linear:
		if len(m.Coef) != d {
			return fmt.Errorf("ml: Linear has %d coefficients for %d features", len(m.Coef), d)
		}
	case *Lasso:
		if len(m.Coef) != d {
			return fmt.Errorf("ml: Lasso has %d coefficients for %d features", len(m.Coef), d)
		}
	case *Forest:
		for i, n := range m.flat.nodes {
			if int(n.feature) >= d {
				return fmt.Errorf("ml: RandomForest node %d splits on feature %d of %d", i, n.feature, d)
			}
		}
	case *SVR:
		if m.scaler == nil || len(m.scaler.Mean) != d || len(m.scaler.Scale) != d {
			return fmt.Errorf("ml: SVR_RBF scaler is not %d wide", d)
		}
		if len(m.beta) != len(m.support) {
			return fmt.Errorf("ml: SVR_RBF has %d weights for %d support vectors", len(m.beta), len(m.support))
		}
		for i, sv := range m.support {
			if len(sv) != d {
				return fmt.Errorf("ml: SVR_RBF support vector %d has %d features, want %d", i, len(sv), d)
			}
		}
	}
	return nil
}

// PredictAll applies the model to every row.
func PredictAll(m Regressor, x [][]float64) []float64 {
	out := make([]float64, len(x))
	PredictAllInto(m, out, x)
	return out
}

// PredictAllInto fills dst with per-row predictions, using the model's
// batch path when it has one. dst must be at least as long as x.
func PredictAllInto(m Regressor, dst []float64, x [][]float64) {
	if b, ok := m.(BatchRegressor); ok {
		b.PredictInto(dst, x)
		return
	}
	for i, r := range x {
		dst[i] = m.Predict(r)
	}
}
