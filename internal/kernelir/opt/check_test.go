package opt

import (
	"testing"

	"synergy/internal/kernelir"
)

// TestMemTraceTripPaths pins invariant (2)'s loop context: a body whose
// accesses sit under the original's trip counts passes, and one whose
// accesses moved to another trip path is refused, while the path table
// one Optimize call shares grows across checks.
func TestMemTraceTripPaths(t *testing.T) {
	body := func(loops string) []kernelir.Instr {
		k, err := kernelir.Assemble("kernel k(read f32[in], write f32[out]) {\n  i0 = gid\n" + loops + "}")
		if err != nil {
			t.Fatal(err)
		}
		return k.Body
	}
	const same = `  repeat 2 {
    repeat 3 {
      f0 = ld.g.f in[i0]
    }
  }
  repeat 3 {
    f0 = ld.g.f in[i0]
  }
  st.g.f out[i0], f0
`
	orig := body(same)
	for _, c := range []struct {
		name, loops string
		ok          bool
	}{
		{"same trips", same, true},
		{"nest swapped", `  repeat 3 {
    repeat 2 {
      f0 = ld.g.f in[i0]
    }
  }
  repeat 3 {
    f0 = ld.g.f in[i0]
  }
  st.g.f out[i0], f0
`, false},
		{"inner trip without its parent", `  repeat 3 {
    f0 = ld.g.f in[i0]
  }
  repeat 3 {
    f0 = ld.g.f in[i0]
  }
  st.g.f out[i0], f0
`, false},
		{"same trip under another parent", `  repeat 4 {
    repeat 3 {
      f0 = ld.g.f in[i0]
    }
  }
  repeat 3 {
    f0 = ld.g.f in[i0]
  }
  st.g.f out[i0], f0
`, false},
		{"load out of its loop", `  repeat 2 {
    repeat 3 {
      f0 = ld.g.f in[i0]
    }
  }
  f0 = ld.g.f in[i0]
  st.g.f out[i0], f0
`, false},
		{"store into a loop", `  repeat 2 {
    repeat 3 {
      f0 = ld.g.f in[i0]
    }
  }
  repeat 3 {
    f0 = ld.g.f in[i0]
    st.g.f out[i0], f0
  }
`, false},
	} {
		var mem memTrace
		if err := mem.check(orig, orig); err != nil {
			t.Fatalf("%s: the original against itself: %v", c.name, err)
		}
		if err := mem.check(orig, body(c.loops)); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok %v", c.name, err, c.ok)
		}
		if err := mem.check(orig, orig); err != nil {
			t.Errorf("%s: the original after it: %v", c.name, err)
		}
	}
}
