package ml

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// saveModel returns the envelope WriteJSON writes for m as a field.
func saveModel(t *testing.T, m Regressor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Field{Key: "m", Value: m}); err != nil {
		t.Fatalf("%s: save: %v", m.Name(), err)
	}
	var doc struct{ M json.RawMessage }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.M
}

// roundTrip saves and reloads a model, checking predictions match
// exactly on a probe grid.
func roundTrip(t *testing.T, m Regressor, dims int) {
	t.Helper()
	loaded, err := LoadModel(bytes.NewReader(saveModel(t, m)))
	if err != nil {
		t.Fatalf("%s: load: %v", m.Name(), err)
	}
	if loaded.Name() != m.Name() {
		t.Fatalf("round trip changed algo: %s -> %s", m.Name(), loaded.Name())
	}
	probe := make([]float64, dims)
	for i := 0; i < 50; i++ {
		for j := range probe {
			probe[j] = float64(i*7+j*3)/25 - 1
		}
		if got, want := loaded.Predict(probe), m.Predict(probe); got != want {
			t.Fatalf("%s: prediction changed after round trip: %v vs %v", m.Name(), got, want)
		}
	}
}

func TestSaveLoadAllModelTypes(t *testing.T) {
	x, y := synthNonlinear(300, 77)
	for _, m := range []Regressor{
		&Linear{},
		&Lasso{Alpha: 0.01},
		&Forest{Trees: 15, Seed: 5},
		&SVR{C: 10, Epsilon: 0.05, Gamma: 1},
	} {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		roundTrip(t, m, 2)
	}
}

func TestSaveUnfittedSVRFails(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Field{Key: "m", Value: &SVR{}}); err == nil || buf.Len() != 0 {
		t.Fatalf("unfitted SVR: error %v after %d bytes, want an error and none", err, buf.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"algo":"GBM","data":{}}`)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"algo":"RandomForest","data":{"trees":[null]}}`)); err == nil {
		t.Error("forest with empty tree accepted")
	}
	// Interior node with missing children.
	if _, err := LoadModel(strings.NewReader(
		`{"algo":"RandomForest","data":{"trees":[{"f":0,"t":1,"leaf":false}]}}`)); err == nil {
		t.Error("malformed tree accepted")
	}
	// Negative split features, and ones a node's int32 feature cannot
	// hold: -1 and 2^32-1 would land on leafFeature and turn the split
	// into a leaf silently.
	for _, f := range []string{"-1", "-2", "4294967295", "4294967296"} {
		if _, err := LoadModel(strings.NewReader(
			`{"algo":"RandomForest","data":{"trees":[{"f":` + f + `,"t":1,"leaf":false,` +
				`"lo":{"v":1,"leaf":true},"hi":{"v":2,"leaf":true}}]}}`)); err == nil {
			t.Errorf("split on feature %s accepted", f)
		}
	}
}

func TestSaveRejectsUnknownType(t *testing.T) {
	for _, v := range []any{fakeModel{}, nil, 3.5} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, Field{Key: "a", Value: "b"}, Field{Key: "m", Value: v}); err == nil || buf.Len() != 0 {
			t.Fatalf("%T: error %v after %d bytes, want an error and none", v, err, buf.Len())
		}
	}
}

type fakeModel struct{}

func (fakeModel) Name() string                     { return "fake" }
func (fakeModel) Fit([][]float64, []float64) error { return nil }
func (fakeModel) Predict([]float64) float64        { return 0 }
