package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAPE(t *testing.T) {
	if got := APE(100, 110); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("APE(100, 110) = %v, want 0.1", got)
	}
	if got := APE(0, 0); got != 0 {
		t.Errorf("APE(0, 0) = %v, want 0", got)
	}
	if got := APE(0, 1); !math.IsInf(got, 1) {
		t.Errorf("APE(0, 1) = %v, want +Inf", got)
	}
	if got := APE(-50, -25); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("APE(-50, -25) = %v, want 0.5", got)
	}
}

func TestMAPEAndRMSE(t *testing.T) {
	actual := []float64{100, 200}
	pred := []float64{110, 180}
	mape, skipped, err := MAPE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mape-0.1) > 1e-12 { // (0.1 + 0.1)/2
		t.Errorf("MAPE = %v, want 0.1", mape)
	}
	if skipped != 0 {
		t.Errorf("MAPE skipped = %d, want 0", skipped)
	}
	rmse, err := RMSE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((100 + 400) / 2.0)
	if math.Abs(rmse-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", rmse, want)
	}
	if _, _, err := MAPE(nil, nil); err == nil {
		t.Error("empty MAPE accepted")
	}
}

// A single actual == 0 sample must be skipped and counted, not poison
// the whole mean with +Inf; all-zero actuals are an error.
func TestMAPESkipsZeroActuals(t *testing.T) {
	actual := []float64{100, 0, 200}
	pred := []float64{110, 5, 180}
	mape, skipped, err := MAPE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if math.IsInf(mape, 0) || math.Abs(mape-0.1) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.1 (zero-actual sample skipped)", mape)
	}
	if _, skipped, err := MAPE([]float64{0, 0}, []float64{1, 2}); err == nil || skipped != 2 {
		t.Errorf("all-zero actuals: err=%v skipped=%d, want error and 2", err, skipped)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRMSEZeroIffExact(t *testing.T) {
	f := func(v [8]float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		r, err := RMSE(v[:], v[:])
		return err == nil && r == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR2(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	r2, err := R2(actual, actual)
	if err != nil || r2 != 1 {
		t.Fatalf("perfect R2 = %v, %v", r2, err)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	r2, err = R2(actual, mean)
	if err != nil || math.Abs(r2) > 1e-12 {
		t.Fatalf("mean-prediction R2 = %v, want 0", r2)
	}
}

func TestScalerProperties(t *testing.T) {
	x := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	xs := s.TransformAll(x)
	for j := 0; j < 2; j++ {
		mean, sq := 0.0, 0.0
		for i := range xs {
			mean += xs[i][j]
		}
		mean /= float64(len(xs))
		for i := range xs {
			sq += (xs[i][j] - mean) * (xs[i][j] - mean)
		}
		std := math.Sqrt(sq / float64(len(xs)))
		if math.Abs(mean) > 1e-12 || math.Abs(std-1) > 1e-12 {
			t.Errorf("column %d: mean %v std %v after scaling", j, mean, std)
		}
	}
	// Inverse round-trips.
	for i := range x {
		back := s.Inverse(xs[i])
		for j := range back {
			if math.Abs(back[j]-x[i][j]) > 1e-9 {
				t.Fatalf("inverse round trip failed: %v vs %v", back, x[i])
			}
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	x := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{5, 2})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant column produced %v", out[0])
	}
}
