package opt

import (
	"slices"
	"testing"

	"synergy/internal/kernelir"
)

// TestRewritePCMeaning pins what Rewrite.PC indexes where a pass logs
// into a body its earlier rewrites changed: licm's second batch and
// dce's emptied repeat are logged at their pcs in the body as the
// pass's earlier rewrites left it, not in the body before the pass.
func TestRewritePCMeaning(t *testing.T) {
	for _, c := range []struct {
		name string
		pass func(*kernelir.Kernel, []kernelir.Instr) ([]kernelir.Instr, []Rewrite)
		kir  string
		want []Rewrite
	}{
		{
			// The first batch (param.f, const.f) leaves the repeat at
			// pc 4 and the add.f it freed at pc 5; both were at pc 2 and
			// pc 4 before the pass.
			name: "licm", pass: licmPass,
			kir: `kernel k(read f32[in], write f32[out], f32 s) {
  i0 = gid
  f0 = const.f 0
  repeat 4 {
    f1 = param.f s
    f2 = add.f f1, f1
    f3 = ld.g.f in[i0]
    f4 = const.f 2
    f5 = add.f f3, f2
    f0 = add.f f5, f4
  }
  st.g.f out[i0], f0
}`,
			want: []Rewrite{
				{"licm", 3, "param.f is invariant in the repeat at pc 2 (operands unwritten in loop, single write, no prior read)"},
				{"licm", 6, "const.f is invariant in the repeat at pc 2 (operands unwritten in loop, single write, no prior read)"},
				{"licm", 5, "add.f is invariant in the repeat at pc 4 (operands unwritten in loop, single write, no prior read)"},
			},
		},
		{
			// Deleting the dead const.i at pc 1 and the one inside the
			// repeat leaves the repeat empty at pcs 1 and 2; before the
			// pass its begin and end were at pc 2 and pc 4.
			name: "dce", pass: dcePass,
			kir: `kernel k(write i32[out]) {
  i0 = gid
  i1 = const.i 7
  repeat 2 {
    i2 = const.i 5
  }
  st.g.i out[i0], i0
}`,
			want: []Rewrite{
				{"dce", 1, "const.i result never read (dead past this point and not live-in of the next item)"},
				{"dce", 3, "const.i result never read (dead past this point and not live-in of the next item)"},
				{"dce", 1, "empty repeat block (begin)"},
				{"dce", 2, "empty repeat block (end)"},
			},
		},
	} {
		k, err := kernelir.Assemble(c.kir)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, got := c.pass(k, k.Body); !slices.Equal(got, c.want) {
			t.Errorf("%s logged\n%v\nwant\n%v", c.name, got, c.want)
		}
	}
}
