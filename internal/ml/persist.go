package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Model persistence: trained regressors serialise to a JSON envelope
// {"algo": ..., "data": ...} so a deployment can train once per device
// (the §3.2 installation step) and ship the models with the binary.
// WriteJSON writes models inside a larger document; LoadModel reads one
// envelope back.

// envelope is a serialised model as LoadModel decodes it: its algorithm
// tag and its still undecoded state.
type envelope struct {
	Algo string          `json:"algo"`
	Data json.RawMessage `json:"data"`
}

// The states below are the "data" of each algorithm's envelope, in the
// field order WriteJSON writes them.

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

// appendTree appends the decoded tree s to nodes in preorder, high
// children indexed from the start of nodes. It keeps what a prediction
// reads: a leaf's value, and a split's feature, threshold and children.
func appendTree(nodes []node, s *nodeState) ([]node, error) {
	if s.Leaf {
		return append(nodes, node{feature: leafFeature, x: s.Value}), nil
	}
	if s.Lo == nil || s.Hi == nil {
		return nil, fmt.Errorf("ml: interior tree node missing children")
	}
	// A node stores its feature as int32, where a wider index could
	// wrap into range or onto leafFeature.
	if s.Feature < 0 || s.Feature > math.MaxInt32 {
		return nil, fmt.Errorf("ml: interior tree node splits on feature %d", s.Feature)
	}
	n := len(nodes)
	nodes = append(nodes, node{feature: int32(s.Feature), x: s.Thresh})
	nodes, err := appendTree(nodes, s.Lo)
	if err != nil {
		return nil, err
	}
	nodes[n].hi = int32(len(nodes))
	return appendTree(nodes, s.Hi)
}

// LoadModel reads one model envelope, as WriteJSON writes it for a
// model field.
func LoadModel(r io.Reader) (Regressor, error) {
	var env envelope
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
		trees := make([][]node, len(st.Trees))
		for i, ts := range st.Trees {
			if ts == nil {
				return nil, fmt.Errorf("ml: forest contains empty tree")
			}
			var err error
			if trees[i], err = appendTree(nil, ts); err != nil {
				return nil, err
			}
		}
		f := &Forest{flat: merge(trees)}
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

// Field is one member of the object WriteJSON writes. Value is a string
// or a Regressor.
type Field struct {
	Key   string
	Value any
}

// WriteJSON writes the JSON object of fields to w, each model as its
// algorithm and fitted state ({"algo": ..., "data": ...}). The bytes are
// the ones encoding/json's Encoder with SetIndent("", " ") writes for
// the same object, trailing newline included, and they go out through a
// small buffer, so the document is never held whole. WriteJSON checks
// every field before it writes a byte and writes nothing if one cannot
// be saved: a value that is neither a string nor a model of a known
// type, an unfitted SVR, or a NaN or infinite value, which JSON cannot
// represent.
func WriteJSON(w io.Writer, fields ...Field) error {
	for _, f := range fields {
		if _, ok := f.Value.(string); ok {
			continue
		}
		m, ok := f.Value.(Regressor)
		if !ok {
			return fmt.Errorf("ml: cannot save model type %T", f.Value)
		}
		if err := CheckSave(m); err != nil {
			return err
		}
	}
	jw := &jsonWriter{out: w, b: make([]byte, 0, 2*flushAt)}
	jw.open('{')
	for _, f := range fields {
		jw.next()
		jw.b = append(appendString(jw.b, f.Key), ": "...)
		if s, ok := f.Value.(string); ok {
			jw.b = appendString(jw.b, s)
		} else {
			jw.model(f.Value.(Regressor))
		}
	}
	jw.close('}')
	jw.b = append(jw.b, '\n')
	jw.flush()
	return jw.err
}

// CheckSave reports why WriteJSON cannot write m: it is not a model of
// a known type, it is an unfitted SVR, or it holds a NaN or infinite
// value. Training refuses a fitted model by the same rule.
func CheckSave(m Regressor) error {
	var vals [][]float64
	switch r := m.(type) {
	case *Linear:
		vals = [][]float64{{r.Ridge, r.Intercept}, r.Coef}
	case *Lasso:
		vals = [][]float64{{r.Alpha, r.Intercept}, r.Coef}
	case *Forest:
		for _, n := range r.flat.nodes {
			if err := checkFinite(m, n.x); err != nil {
				return err
			}
		}
	case *SVR:
		if r.scaler == nil {
			return fmt.Errorf("ml: cannot save unfitted SVR")
		}
		vals = append([][]float64{{r.gamma, r.yMean}, r.scaler.Mean, r.scaler.Scale, r.beta}, r.support...)
	default:
		return fmt.Errorf("ml: cannot save model type %T", m)
	}
	for _, vs := range vals {
		for _, v := range vs {
			if err := checkFinite(m, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkFinite refuses v, a value of m, if it is NaN or infinite.
func checkFinite(m Regressor, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("ml: cannot save %s: it holds %v, which JSON cannot represent", m.Name(), v)
	}
	return nil
}

// flushAt is how full jsonWriter lets its buffer get before it hands
// the bytes to its writer. The buffer holds twice that, so a line
// started below the mark fits unless it is indented thousands deep.
const flushAt = 16 << 10

// jsonWriter appends indented JSON, one space per level, to a fixed
// buffer and hands the buffer to out whenever it fills up. first is set
// while the innermost open object or array has no member yet.
type jsonWriter struct {
	out   io.Writer
	b     []byte
	depth int
	first bool
	err   error
}

func (w *jsonWriter) flush() {
	if w.err == nil {
		_, w.err = w.out.Write(w.b)
	}
	w.b = w.b[:0]
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost object or array: on a line of its own, or
// right after the opening bracket if it is empty.
func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.first = false
	w.b = append(w.b, c)
}

// next starts a member or element on a line of its own, after a comma
// unless it is the first of its object or array.
func (w *jsonWriter) next() {
	if len(w.b) >= flushAt {
		w.flush()
	}
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

const spaces = "                                "

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	for n := w.depth; n > 0; n -= len(spaces) {
		w.b = append(w.b, spaces[:min(n, len(spaces))]...)
	}
}

// key starts the member k, a key that needs no escaping.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(append(append(w.b, '"'), k...), `": `...)
}

// num writes the member k with the value f.
func (w *jsonWriter) num(k string, f float64) {
	w.key(k)
	w.b = appendFloat(w.b, f)
}

// floats writes a nil slice as null, as encoding/json does.
func (w *jsonWriter) floats(fs []float64) {
	if fs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, f := range fs {
		w.next()
		w.b = appendFloat(w.b, f)
	}
	w.close(']')
}

// model writes m's envelope; CheckSave has passed it.
func (w *jsonWriter) model(m Regressor) {
	w.open('{')
	w.key("algo")
	w.b = appendString(w.b, m.Name())
	w.key("data")
	w.open('{')
	switch r := m.(type) {
	case *Linear:
		if r.Ridge != 0 { // omitempty
			w.num("ridge", r.Ridge)
		}
		w.num("intercept", r.Intercept)
		w.key("coef")
		w.floats(r.Coef)
	case *Lasso:
		w.num("alpha", r.Alpha)
		w.num("intercept", r.Intercept)
		w.key("coef")
		w.floats(r.Coef)
	case *Forest:
		w.key("trees")
		w.open('[')
		for _, root := range r.flat.roots {
			w.next()
			w.tree(r.flat.nodes, root)
		}
		w.close(']')
	case *SVR:
		w.num("gamma", r.gamma)
		w.num("ymean", r.yMean)
		w.key("mean")
		w.floats(r.scaler.Mean)
		w.key("scale")
		w.floats(r.scaler.Scale)
		w.key("beta")
		w.floats(r.beta)
		w.key("support")
		if r.support == nil {
			w.b = append(w.b, "null"...)
			break
		}
		w.open('[')
		for _, sv := range r.support {
			w.next()
			w.floats(sv)
		}
		w.close(']')
	}
	w.close('}')
	w.close('}')
}

// tree writes the subtree at nodes[n], a leaf's feature and threshold
// and a split's value as 0: "leaf" marks a leaf in the bundle, whose
// bytes must not change.
func (w *jsonWriter) tree(nodes []node, n int32) {
	nd := nodes[n]
	leaf := nd.feature == leafFeature
	t, v := nd.x, 0.0
	if leaf {
		t, v = 0, nd.x
	}
	w.open('{')
	w.key("f")
	w.b = strconv.AppendInt(w.b, int64(max(nd.feature, 0)), 10)
	w.num("t", t)
	w.num("v", v)
	w.key("leaf")
	w.b = strconv.AppendBool(w.b, leaf)
	if !leaf {
		w.key("lo")
		w.tree(nodes, n+1)
		w.key("hi")
		w.tree(nodes, nd.hi)
	}
	w.close('}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back to f, in 'f' form unless its magnitude is
// below 1e-6 or at least 1e21, where it takes 'e' form with no leading
// zero in a negative exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string escaped as encoding/json's
// Encoder escapes it: quotes, backslashes and control characters; <, >
// and & for HTML; U+2028 and U+2029; and each byte of invalid UTF-8 as
// U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
