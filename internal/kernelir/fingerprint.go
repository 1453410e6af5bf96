package kernelir

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"synergy/internal/memo"
)

// fingerprints memoizes Fingerprint by kernel pointer (kernels are
// immutable once built). Long-lived callers fingerprint a stable
// population and always hit; transient kernels — ExecuteChecked's
// per-call instrumented clones, fuzzer bodies — age out of the LRU.
var fingerprints = memo.New[*Kernel, string](memo.Cap)

// Fingerprint returns a stable identity for the kernel: the hex form of
// the first 16 bytes of the SHA-256 of its disassembly. Textual identity
// is exactly what both the sweep engine's memo and the compiled-program
// cache want — two kernels that disassemble identically have identical
// features, identical ground truth and identical compiled code.
func Fingerprint(k *Kernel) string {
	fp, _ := fingerprints.Get(context.Background(), k, func() (string, error) {
		sum := sha256.Sum256([]byte(k.Disassemble()))
		return hex.EncodeToString(sum[:16]), nil
	})
	return fp
}
