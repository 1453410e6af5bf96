package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"synergy/internal/hw"
	"synergy/internal/ml"
)

// bundleState is a bundle as LoadModels decodes it: the device and
// algorithm of the §3.2 installation step's single JSON artifact, and
// its four models, each still undecoded.
type bundleState struct {
	Device string          `json:"device"`
	Algo   string          `json:"algo"`
	Time   json.RawMessage `json:"time"`
	Energy json.RawMessage `json:"energy"`
	EDP    json.RawMessage `json:"edp"`
	ED2P   json.RawMessage `json:"ed2p"`
}

// deviceKey maps a spec to the identifier used by hw.SpecByName.
func deviceKey(spec *hw.Spec) (string, error) {
	for key, s := range hw.BuiltinSpecs() {
		if s.Name == spec.Name {
			return key, nil
		}
	}
	return "", fmt.Errorf("model: device %q is not a builtin spec", spec.Name)
}

// SaveModels writes the trained bundle to w: an indented JSON object of
// the device, the algorithm and the four models (ml.WriteJSON). It
// writes nothing if a model cannot be saved.
func SaveModels(w io.Writer, m *Models) error {
	key, err := deviceKey(m.Spec)
	if err != nil {
		return err
	}
	return ml.WriteJSON(w,
		ml.Field{Key: "device", Value: key}, ml.Field{Key: "algo", Value: m.Algo},
		ml.Field{Key: "time", Value: m.Time}, ml.Field{Key: "energy", Value: m.Energy},
		ml.Field{Key: "edp", Value: m.EDP}, ml.Field{Key: "ed2p", Value: m.ED2P})
}

// LoadModels reads a bundle written by SaveModels.
func LoadModels(r io.Reader) (*Models, error) {
	var st bundleState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("model: decoding bundle: %w", err)
	}
	spec, err := hw.SpecByName(st.Device)
	if err != nil {
		return nil, err
	}
	m := &Models{Spec: spec, Algo: st.Algo}
	for _, part := range []struct {
		src json.RawMessage
		dst *ml.Regressor
	}{
		{st.Time, &m.Time}, {st.Energy, &m.Energy}, {st.EDP, &m.EDP}, {st.ED2P, &m.ED2P},
	} {
		if len(part.src) == 0 {
			return nil, fmt.Errorf("model: bundle missing a target model")
		}
		reg, err := ml.LoadModel(bytes.NewReader(part.src))
		if err != nil {
			return nil, err
		}
		*part.dst = reg
	}
	// Refuse bundles that decode but cannot predict (e.g. a forest with
	// no trees): serving zero-frequency advice from a corrupt bundle is
	// strictly worse than failing the load.
	if err := m.Check(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads a bundle file written by SaveModels (synergy-train
// -save).
func LoadFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModels(f)
}

// Fingerprint returns a short content fingerprint of the bundle: the
// truncated SHA-256 of its SaveModels bytes, streamed into the hash as
// they are written. Those bytes are canonical: a loaded bundle keeps
// only what its predictions read, so a hand-edited bundle that sets
// other fields fingerprints as the bundle it predicts like. Two bundles
// fingerprint equal exactly when they would serve identical predictions,
// so the serve daemon can echo the fingerprint on every response and
// prove reload atomicity (no response computed from a mix of two
// bundles).
func (m *Models) Fingerprint() (string, error) {
	h := sha256.New()
	if err := SaveModels(h, m); err != nil {
		return "", fmt.Errorf("model: fingerprinting bundle: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:6]), nil
}
