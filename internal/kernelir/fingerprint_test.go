package kernelir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
	"synergy/internal/microbench"
)

// textHash is what Fingerprint must return: the first 16 bytes of the
// SHA-256 of the kernel's text, in hex.
func textHash(k *kernelir.Kernel) string {
	sum := sha256.Sum256([]byte(k.Disassemble()))
	return hex.EncodeToString(sum[:16])
}

// foldable builds a fresh kernel the optimizer rewrites (2+3 folds to a
// constant) and that touches local memory (so ExecuteChecked runs an
// instrumented copy of it).
func foldable() *kernelir.Kernel {
	b := kernelir.NewBuilder("foldable")
	out := b.BufferI32("out", kernelir.Write)
	b.Local(4)
	gid := b.GlobalID()
	sum := b.AddI(b.ConstI(2), b.ConstI(3))
	b.StoreLocal(b.ConstI(1), b.IntToFloat(sum))
	b.StoreI(out, gid, b.AddI(sum, b.FloatToInt(b.LoadLocal(b.ConstI(1)))))
	return b.MustBuild()
}

// TestWithBodyCopiesEveryOtherField: WithBody is the one way to derive
// a kernel, so it must carry every exported field but the body.
func TestWithBodyCopiesEveryOtherField(t *testing.T) {
	k := &kernelir.Kernel{
		Name: "all", Params: []kernelir.Param{{Name: "p"}}, Body: []kernelir.Instr{{Op: kernelir.OpGlobalID}},
		NumIntRegs: 2, NumFloatRegs: 3, LocalF32: 4, TrafficFactor: 0.5,
	}
	body := []kernelir.Instr{{Op: kernelir.OpConstI, Imm: 1}}
	nk := k.WithBody(body)
	if len(nk.Body) != 1 || &nk.Body[0] != &body[0] {
		t.Fatal("WithBody did not install the given body")
	}
	kv, nv := reflect.ValueOf(k).Elem(), reflect.ValueOf(nk).Elem()
	for i := range kv.NumField() {
		f := kv.Type().Field(i)
		if !f.IsExported() || f.Name == "Body" {
			continue
		}
		if kv.Field(i).IsZero() {
			t.Fatalf("test kernel leaves %s zero; set it so the copy is checked", f.Name)
		}
		if !reflect.DeepEqual(kv.Field(i).Interface(), nv.Field(i).Interface()) {
			t.Errorf("WithBody dropped %s", f.Name)
		}
	}
}

// TestOptimizedKernelFingerprintsItsOwnText: a kernel derived from a
// fingerprinted one must not inherit its fingerprint.
func TestOptimizedKernelFingerprintsItsOwnText(t *testing.T) {
	k := foldable()
	fp := kernelir.Fingerprint(k)
	nk, res := opt.Optimize(k)
	if res.Err != nil || !res.Changed() || nk == k {
		t.Fatalf("optimizer left the kernel alone (err %v); the test needs a rewrite", res.Err)
	}
	if got := kernelir.Fingerprint(nk); got != textHash(nk) || got == fp {
		t.Fatalf("optimized kernel fingerprint %s, its text hashes to %s, source %s", got, textHash(nk), fp)
	}
	if kernelir.Fingerprint(k) != fp {
		t.Fatal("the source kernel's fingerprint changed")
	}
}

// TestFingerprintConcurrentFirstCalls: first Fingerprint calls on one
// fresh kernel race with the optimizer and the checked executor, which
// both derive copies of it; every caller sees the value its own text
// hashes to. Run it under -race: a by-value copy of the kernel would
// read the cached field while a first call stores it.
func TestFingerprintConcurrentFirstCalls(t *testing.T) {
	k := foldable()
	want := textHash(k)
	var wg sync.WaitGroup
	fps := make([]string, 8)
	for i := range fps {
		wg.Add(3)
		go func() {
			defer wg.Done()
			fps[i] = kernelir.Fingerprint(k)
		}()
		go func() {
			defer wg.Done()
			if nk, res := opt.Optimize(k); res.Err != nil || kernelir.Fingerprint(nk) != textHash(nk) {
				t.Errorf("optimized copy: err %v, fingerprint not its own text's", res.Err)
			}
		}()
		go func() {
			defer wg.Done()
			out := make([]int32, 4)
			if err := kernelir.ExecuteChecked(k, kernelir.Args{I32: map[string][]int32{"out": out}}, len(out)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, fp := range fps {
		if fp != want {
			t.Fatalf("a caller saw %s, want %s", fp, want)
		}
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var fpSink, textSink string

// benchUnique is the size of the benchmark's unique kernels: a
// micro-benchmark with tens of instructions per work-item.
func benchUnique(tb testing.TB) *kernelir.Kernel {
	k, err := microbench.Build(microbench.Config{
		Name: "bench_unique", IntAdd: 6, IntMul: 3, IntDiv: 1, IntBw: 3,
		FloatAdd: 12, FloatMul: 12, FloatDiv: 2, SF: 2,
		Loads: 4, Stores: 1, Local: 2, Traffic: 0.625,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// BenchmarkFingerprint times a first call on a fresh kernel (what every
// .kir request pays) and a repeat call on a fingerprinted one.
func BenchmarkFingerprint(b *testing.B) {
	k := benchUnique(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			fpSink = kernelir.Fingerprint(k.WithBody(k.Body))
		}
	})
	b.Run("repeat", func(b *testing.B) {
		kernelir.Fingerprint(k)
		b.ReportAllocs()
		for range b.N {
			fpSink = kernelir.Fingerprint(k)
		}
	})
}

// BenchmarkDisassemble renders a fresh kernel and the same kernel again;
// Disassemble keeps nothing, so the two should match.
func BenchmarkDisassemble(b *testing.B) {
	k := benchUnique(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			textSink = k.WithBody(k.Body).Disassemble()
		}
	})
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			textSink = k.Disassemble()
		}
	})
}
