package model

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The test-only reference of the bundle format: a bundle as
// encoding/json decodes it, the way LoadModels does, and as its
// indenting Encoder writes it, the bytes SaveModels must write. Forest
// trees decode into pointer trees (refNode), the oracle of the flat
// forest's walks.

type refBundle struct {
	Device string `json:"device"`
	Algo   string `json:"algo"`
	Time   any    `json:"time"`
	Energy any    `json:"energy"`
	EDP    any    `json:"edp"`
	ED2P   any    `json:"ed2p"`
}

type refEnvelope struct {
	Algo string `json:"algo"`
	Data any    `json:"data"`
}

type refLinear struct {
	Ridge     float64   `json:"ridge,omitempty"`
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

type refLasso struct {
	Alpha     float64   `json:"alpha"`
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

type refNode struct {
	F    int      `json:"f"`
	T    float64  `json:"t"`
	V    float64  `json:"v"`
	Leaf bool     `json:"leaf"`
	Lo   *refNode `json:"lo,omitempty"`
	Hi   *refNode `json:"hi,omitempty"`
}

type refForest struct {
	Trees []*refNode `json:"trees"`
}

type refSVR struct {
	Gamma   float64     `json:"gamma"`
	YMean   float64     `json:"ymean"`
	Mean    []float64   `json:"mean"`
	Scale   []float64   `json:"scale"`
	Beta    []float64   `json:"beta"`
	Support [][]float64 `json:"support"`
}

// refDecode decodes a bundle that LoadModels accepted as LoadModels
// does: the bundle with each model undecoded, then each model's envelope
// with its state undecoded, then the state by algorithm. Each forest
// node keeps only what a prediction reads, as a loaded forest does.
func refDecode(data []byte) (*refBundle, error) {
	var raw struct {
		Device string          `json:"device"`
		Algo   string          `json:"algo"`
		Time   json.RawMessage `json:"time"`
		Energy json.RawMessage `json:"energy"`
		EDP    json.RawMessage `json:"edp"`
		ED2P   json.RawMessage `json:"ed2p"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&raw); err != nil {
		return nil, err
	}
	b := &refBundle{Device: raw.Device, Algo: raw.Algo}
	for _, part := range []struct {
		src json.RawMessage
		dst *any
	}{{raw.Time, &b.Time}, {raw.Energy, &b.Energy}, {raw.EDP, &b.EDP}, {raw.ED2P, &b.ED2P}} {
		var env struct {
			Algo string          `json:"algo"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.NewDecoder(bytes.NewReader(part.src)).Decode(&env); err != nil {
			return nil, err
		}
		var st any
		switch env.Algo {
		case AlgoLinear:
			st = &refLinear{}
		case AlgoLasso:
			st = &refLasso{}
		case AlgoForest:
			st = &refForest{}
		case AlgoSVR:
			st = &refSVR{}
		default:
			return nil, fmt.Errorf("algorithm %q", env.Algo)
		}
		if err := json.Unmarshal(env.Data, st); err != nil {
			return nil, err
		}
		if f, ok := st.(*refForest); ok {
			for _, n := range f.Trees {
				n.canonical()
			}
		}
		*part.dst = refEnvelope{Algo: env.Algo, Data: st}
	}
	return b, nil
}

// canonical clears what no prediction reads: a leaf's feature,
// threshold and children, and a split's value.
func (n *refNode) canonical() {
	if n.Leaf {
		n.F, n.T, n.Lo, n.Hi = 0, 0, nil, nil
		return
	}
	n.V = 0
	n.Lo.canonical()
	n.Hi.canonical()
}

// refEncode encodes b as SaveModels did.
func refEncode(b *refBundle) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// predict walks every pointer tree, adding their leaf values in tree
// order from zero and dividing by the tree count at the end, as the flat
// forest's walks must.
func (f *refForest) predict(x []float64) float64 {
	s := 0.0
	for _, n := range f.Trees {
		for !n.Leaf {
			if x[n.F] <= n.T {
				n = n.Lo
			} else {
				n = n.Hi
			}
		}
		s += n.V
	}
	return s / float64(len(f.Trees))
}
