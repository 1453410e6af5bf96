package kernelir

import (
	"crypto/sha256"
	"encoding/hex"
)

// fingerprint is a kernel's memoized identity. It is tagged with the
// kernel it was computed for, so a by-value copy of that kernel, which
// carries the same pointer, recomputes instead of reusing it.
type fingerprint struct {
	of  *Kernel
	hex string
}

// Fingerprint returns a stable identity for the kernel: the hex form of
// the first 16 bytes of the SHA-256 of its disassembly. Textual identity
// is exactly what both the sweep engine's memo and the compiled-program
// cache want — two kernels that disassemble identically have identical
// features, identical ground truth and identical compiled code.
//
// The kernel keeps its own fingerprint: the first call renders and
// hashes the text once and stores the result in k, and every later call
// is one atomic load. Concurrent first calls may each compute it; they
// store the same value. Kernels are immutable once built, so a kernel
// must not be changed after it is fingerprinted; derive a new one with
// WithBody instead.
func Fingerprint(k *Kernel) string {
	if fp := k.fp.Load(); fp != nil && fp.of == k {
		return fp.hex
	}
	sum := sha256.Sum256(k.text())
	fp := &fingerprint{of: k, hex: hex.EncodeToString(sum[:16])}
	k.fp.Store(fp)
	return fp.hex
}
