package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The test-only reference of WriteJSON: the same document marshalled by
// encoding/json's Encoder with SetIndent("", " "), each model as its
// envelope around its state struct.

type refEnvelope struct {
	Algo string `json:"algo"`
	Data any    `json:"data"`
}

// refState returns m's envelope as encoding/json marshals it.
func refState(m Regressor) (any, error) {
	var data any
	switch r := m.(type) {
	case *Linear:
		data = linearState{Ridge: r.Ridge, Intercept: r.Intercept, Coef: r.Coef}
	case *Lasso:
		data = lassoState{Alpha: r.Alpha, Intercept: r.Intercept, Coef: r.Coef}
	case *Forest:
		st := forestState{Trees: make([]*nodeState, len(r.flat.roots))}
		for i, root := range r.flat.roots {
			st.Trees[i] = refNodeState(r.flat.nodes, root)
		}
		data = st
	case *SVR:
		if r.scaler == nil {
			return nil, fmt.Errorf("unfitted SVR")
		}
		data = svrState{
			Gamma: r.gamma, YMean: r.yMean,
			Mean: r.scaler.Mean, Scale: r.scaler.Scale,
			Beta: r.beta, Support: r.support,
		}
	default:
		return nil, fmt.Errorf("model type %T", m)
	}
	return refEnvelope{Algo: m.Name(), Data: data}, nil
}

// refNodeState is the subtree at nodes[n] as a pointer tree of states:
// a leaf with its value, a split with its feature, threshold and
// children.
func refNodeState(nodes []node, n int32) *nodeState {
	nd := nodes[n]
	if nd.feature == leafFeature {
		return &nodeState{Value: nd.x, Leaf: true}
	}
	return &nodeState{
		Feature: int(nd.feature), Thresh: nd.x,
		Lo: refNodeState(nodes, n+1), Hi: refNodeState(nodes, nd.hi),
	}
}

// refWriteJSON is WriteJSON by encoding/json for a bundle-shaped
// document: two strings, then four models.
func refWriteJSON(device, algo string, models [4]Regressor) ([]byte, error) {
	doc := struct {
		Device string `json:"device"`
		Algo   string `json:"algo"`
		Time   any    `json:"time"`
		Energy any    `json:"energy"`
		EDP    any    `json:"edp"`
		ED2P   any    `json:"ed2p"`
	}{Device: device, Algo: algo}
	for i, dst := range []*any{&doc.Time, &doc.Energy, &doc.EDP, &doc.ED2P} {
		st, err := refState(models[i])
		if err != nil {
			return nil, err
		}
		*dst = st
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBundle is WriteJSON over the document refWriteJSON encodes.
func writeBundle(w *bytes.Buffer, device, algo string, models [4]Regressor) error {
	return WriteJSON(w, Field{Key: "device", Value: device}, Field{Key: "algo", Value: algo},
		Field{Key: "time", Value: models[0]}, Field{Key: "energy", Value: models[1]},
		Field{Key: "edp", Value: models[2]}, Field{Key: "ed2p", Value: models[3]})
}

// checkAgainstReference requires writeBundle to write refWriteJSON's
// bytes, or both to refuse with writeBundle writing nothing.
func checkAgainstReference(t *testing.T, device, algo string, models [4]Regressor) {
	t.Helper()
	want, refErr := refWriteJSON(device, algo, models)
	var buf bytes.Buffer
	err := writeBundle(&buf, device, algo, models)
	switch {
	case refErr != nil:
		if err == nil || buf.Len() != 0 {
			t.Fatalf("the reference refused (%v); WriteJSON returned %v after %d bytes", refErr, err, buf.Len())
		}
	case err != nil:
		t.Fatalf("WriteJSON: %v; the reference wrote %d bytes", err, len(want))
	case !bytes.Equal(buf.Bytes(), want):
		got := buf.Bytes()
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(i-60, 0)
		t.Fatalf("WriteJSON differs from the reference at byte %d of %d/%d:\ngot  %q\nwant %q",
			i, len(got), len(want), got[from:min(i+20, len(got))], want[from:min(i+20, len(want))])
	}
}

// fuzzModels builds a Linear, a Lasso, an SVR and a forest: rng decides
// their shapes (slice lengths, nil slices, tree count and shape, an
// unfitted SVR or forest) and every float comes bit for bit from data,
// eight bytes at a time, zero once data runs out.
func fuzzModels(shape int64, data []byte) [4]Regressor {
	rng := rand.New(rand.NewSource(shape))
	float := func() float64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	floats := func() []float64 {
		n := rng.Intn(5) - 1 // -1 is a nil slice
		if n < 0 {
			return nil
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = float()
		}
		return fs
	}
	var tree func(depth int) *treeNode
	tree = func(depth int) *treeNode {
		if depth == 0 || rng.Intn(2) == 0 {
			return &treeNode{leafFlag: true, value: float()}
		}
		n := &treeNode{feature: rng.Intn(30), thresh: float()}
		n.lo, n.hi = tree(depth-1), tree(depth-1)
		return n
	}
	lin := &Linear{Ridge: float(), Intercept: float(), Coef: floats()}
	if rng.Intn(3) == 0 {
		lin.Ridge = 0 // omitted
	}
	lasso := &Lasso{Alpha: float(), Intercept: float(), Coef: floats()}
	svr := &SVR{gamma: float(), yMean: float()}
	if rng.Intn(8) > 0 {
		svr.scaler = &StandardScaler{Mean: floats(), Scale: floats()}
		svr.beta = floats()
		if n := rng.Intn(4) - 1; n >= 0 {
			svr.support = make([][]float64, n)
			for i := range svr.support {
				svr.support[i] = floats()
			}
		}
	}
	trees := make(refForest, rng.Intn(4))
	for i := range trees {
		trees[i] = tree(3)
	}
	return [4]Regressor{lin, lasso, svr, &Forest{flat: flatten(trees)}}
}

// FuzzSaveMatchesReference holds WriteJSON to encoding/json: over Linear,
// Lasso, SVR and small forest models whose every float comes bit for bit
// from the input (subnormals, -0, the 1e-6 and 1e21 edges of the
// exponent form, NaN, ±Inf) and device and algorithm strings that need
// escaping, it must write exactly the reference's bytes, or refuse,
// having written nothing, where the reference refuses.
func FuzzSaveMatchesReference(f *testing.F) {
	pack := func(fs ...float64) []byte {
		b := make([]byte, 0, 8*len(fs))
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	edges := pack(5e-324, negZero, 1e-7, 1e20, 1e21, 1e-6, 9.999999999999999e-7, 999999999999999900000,
		-2.5e-9, 1.5e-300, math.MaxFloat64, 0.1, -123456.789, 1, 0, 3e-5, -1e22, 2.2250738585072014e-308)
	f.Add("v100", "RandomForest", int64(1), edges)
	f.Add("mi100", "Linear", int64(2), pack(negZero, 1e21, -1e-7))
	f.Add("<a&b>", "\u2028\u2029\x01\b\f\n\r\t\"\\", int64(3), edges[8:])
	f.Add("\xff\xfeok\xc3", "é€𝄞", int64(4), pack(0.5, 0.25))
	f.Add("nan", "x", int64(5), pack(1, 2, math.NaN(), 4))
	f.Add("inf", "x", int64(6), pack(1, math.Inf(1), 3))
	f.Add("-inf", "x", int64(7), append(edges, pack(math.Inf(-1))...))
	f.Add("", "", int64(8), []byte{})
	for s := int64(9); s < 30; s++ {
		f.Add("d", "a", s, edges[s%16*8:])
	}
	f.Fuzz(func(t *testing.T, device, algo string, shape int64, data []byte) {
		checkAgainstReference(t, device, algo, fuzzModels(shape, data))
	})
}

// Fitted models of every algorithm, a 60-tree forest among them, match
// the reference too.
func TestWriteJSONMatchesReferenceOnFittedModels(t *testing.T) {
	x, y := synthNonlinear(300, 77)
	models := [4]Regressor{
		&Linear{Ridge: 1e-3},
		&Lasso{Alpha: 0.01},
		&SVR{C: 10, Epsilon: 0.05, Gamma: 1},
		&Forest{Trees: 60, Seed: 5},
	}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstReference(t, "v100", "RandomForest", models)
	checkAgainstReference(t, "v100", "Linear", [4]Regressor{&Linear{Intercept: 1, Coef: []float64{}}, models[0], models[1], models[2]})
}

// chunkWriter records the largest Write and fails the Write that would
// take it past failAt bytes (never, when failAt is 0).
type chunkWriter struct {
	n, largest, failAt int
}

var errFull = errors.New("writer full")

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.failAt > 0 && w.n+len(p) > w.failAt {
		return 0, errFull
	}
	w.n += len(p)
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// WriteJSON streams: a forest whose document is far larger than the
// buffer goes out in writes no larger than the buffer, all of them, and
// the first failed write ends the save with its error.
func TestWriteJSONStreamsThroughItsBuffer(t *testing.T) {
	f, _ := fitTestForest(t, 100, 400, 6)
	total := &chunkWriter{}
	if err := WriteJSON(total, Field{Key: "m", Value: f}); err != nil {
		t.Fatal(err)
	}
	want, err := refState(f)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"m": want}); err != nil {
		t.Fatal(err)
	}
	if total.n != ref.Len() || total.n < 8*flushAt || total.largest > 2*flushAt {
		t.Fatalf("wrote %d bytes (reference %d) in writes of up to %d bytes, want writes of at most %d",
			total.n, ref.Len(), total.largest, 2*flushAt)
	}
	failing := &chunkWriter{failAt: total.n / 2}
	if err := WriteJSON(failing, Field{Key: "m", Value: f}); !errors.Is(err, errFull) {
		t.Fatalf("failed write: got %v, want %v", err, errFull)
	}
}
