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

// bundleState serialises the four trained models with their device and
// algorithm, so the §3.2 installation step (train once per device) can
// ship its output as a single JSON artifact.
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

// SaveModels writes the trained bundle to w.
func SaveModels(w io.Writer, m *Models) error {
	key, err := deviceKey(m.Spec)
	if err != nil {
		return err
	}
	st := bundleState{Device: key, Algo: m.Algo}
	for _, part := range []struct {
		dst *json.RawMessage
		r   ml.Regressor
	}{
		{&st.Time, m.Time}, {&st.Energy, m.Energy}, {&st.EDP, m.EDP}, {&st.ED2P, m.ED2P},
	} {
		var buf bytes.Buffer
		if err := ml.SaveModel(&buf, part.r); err != nil {
			return err
		}
		*part.dst = json.RawMessage(buf.Bytes())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
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
// truncated SHA-256 of its canonical SaveModels serialization. Two
// bundles fingerprint equal exactly when they would serve identical
// predictions, so the serve daemon can echo the fingerprint on every
// response and prove reload atomicity (no response computed from a mix
// of two bundles).
func (m *Models) Fingerprint() (string, error) {
	var buf bytes.Buffer
	if err := SaveModels(&buf, m); err != nil {
		return "", fmt.Errorf("model: fingerprinting bundle: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:6]), nil
}
