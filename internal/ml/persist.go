package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Model persistence: trained regressors serialise to a JSON envelope
// {"algo": ..., "data": ...} so a deployment can train once per device
// (the §3.2 installation step) and ship the models with the binary.

// envelope wraps a serialised model with its algorithm tag. Data is the
// model's state when saving and json.RawMessage when loading.
type envelope[T any] struct {
	Algo string `json:"algo"`
	Data T      `json:"data"`
}

type linearState struct {
	Ridge     float64   `json:"ridge,omitempty"`
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

type lassoState struct {
	Alpha     float64   `json:"alpha"`
	Intercept float64   `json:"intercept"`
	Coef      []float64 `json:"coef"`
}

type nodeState struct {
	Feature int        `json:"f"`
	Thresh  float64    `json:"t"`
	Value   float64    `json:"v"`
	Leaf    bool       `json:"leaf"`
	Lo      *nodeState `json:"lo,omitempty"`
	Hi      *nodeState `json:"hi,omitempty"`
}

type forestState struct {
	Trees []*nodeState `json:"trees"`
}

type svrState struct {
	Gamma   float64     `json:"gamma"`
	YMean   float64     `json:"ymean"`
	Mean    []float64   `json:"mean"`
	Scale   []float64   `json:"scale"`
	Beta    []float64   `json:"beta"`
	Support [][]float64 `json:"support"`
}

func nodeToState(n *treeNode) *nodeState {
	if n == nil {
		return nil
	}
	return &nodeState{
		Feature: n.feature, Thresh: n.thresh, Value: n.value,
		Leaf: n.leafFlag, Lo: nodeToState(n.lo), Hi: nodeToState(n.hi),
	}
}

func stateToNode(s *nodeState) (*treeNode, error) {
	if s == nil {
		return nil, nil
	}
	n := &treeNode{feature: s.Feature, thresh: s.Thresh, value: s.Value, leafFlag: s.Leaf}
	if !s.Leaf {
		if s.Lo == nil || s.Hi == nil {
			return nil, fmt.Errorf("ml: interior tree node missing children")
		}
		// The flattened forest stores features as int32, where a wider
		// index could wrap into range or onto leafFeature.
		if s.Feature < 0 || s.Feature > math.MaxInt32 {
			return nil, fmt.Errorf("ml: interior tree node splits on feature %d", s.Feature)
		}
		var err error
		if n.lo, err = stateToNode(s.Lo); err != nil {
			return nil, err
		}
		if n.hi, err = stateToNode(s.Hi); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// SaveModel writes a trained regressor to w.
func SaveModel(w io.Writer, m Regressor) error {
	st, err := State(m)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(st)
}

// State returns the value SaveModel encodes for m, its algorithm tag
// and fitted state, so a larger document can embed the model and
// marshal everything in one pass.
func State(m Regressor) (any, error) {
	var data any
	switch r := m.(type) {
	case *Linear:
		data = linearState{Ridge: r.Ridge, Intercept: r.Intercept, Coef: r.Coef}
	case *Lasso:
		data = lassoState{Alpha: r.Alpha, Intercept: r.Intercept, Coef: r.Coef}
	case *Forest:
		st := forestState{Trees: make([]*nodeState, len(r.trees))}
		for i, tr := range r.trees {
			st.Trees[i] = nodeToState(tr)
		}
		data = st
	case *SVR:
		if r.scaler == nil {
			return nil, fmt.Errorf("ml: cannot save unfitted SVR")
		}
		data = svrState{
			Gamma: r.gamma, YMean: r.yMean,
			Mean: r.scaler.Mean, Scale: r.scaler.Scale,
			Beta: r.beta, Support: r.support,
		}
	default:
		return nil, fmt.Errorf("ml: cannot save model type %T", m)
	}
	return envelope[any]{Algo: m.Name(), Data: data}, nil
}

// LoadModel reads a regressor previously written by SaveModel.
func LoadModel(r io.Reader) (Regressor, error) {
	var env envelope[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: decoding model envelope: %w", err)
	}
	switch env.Algo {
	case "Linear":
		var st linearState
		if err := json.Unmarshal(env.Data, &st); err != nil {
			return nil, err
		}
		return &Linear{Ridge: st.Ridge, Intercept: st.Intercept, Coef: st.Coef}, nil
	case "Lasso":
		var st lassoState
		if err := json.Unmarshal(env.Data, &st); err != nil {
			return nil, err
		}
		return &Lasso{Alpha: st.Alpha, Intercept: st.Intercept, Coef: st.Coef}, nil
	case "RandomForest":
		var st forestState
		if err := json.Unmarshal(env.Data, &st); err != nil {
			return nil, err
		}
		if len(st.Trees) == 0 {
			return nil, fmt.Errorf("ml: forest bundle has no trees")
		}
		f := &Forest{trees: make([]*treeNode, len(st.Trees))}
		for i, ts := range st.Trees {
			n, err := stateToNode(ts)
			if err != nil {
				return nil, err
			}
			if n == nil {
				return nil, fmt.Errorf("ml: forest contains empty tree")
			}
			f.trees[i] = n
		}
		f.flat = flatten(f.trees)
		// A bundle that decodes but violates the structural invariants
		// (empty node arrays, out-of-bounds child indices) must not be
		// allowed to serve predictions.
		if err := f.CheckFitted(); err != nil {
			return nil, fmt.Errorf("ml: corrupt forest bundle: %w", err)
		}
		return f, nil
	case "SVR_RBF":
		var st svrState
		if err := json.Unmarshal(env.Data, &st); err != nil {
			return nil, err
		}
		return &SVR{
			gamma: st.Gamma, yMean: st.YMean,
			scaler:  &StandardScaler{Mean: st.Mean, Scale: st.Scale},
			beta:    st.Beta,
			support: st.Support,
		}, nil
	default:
		return nil, fmt.Errorf("ml: unknown model algorithm %q", env.Algo)
	}
}
