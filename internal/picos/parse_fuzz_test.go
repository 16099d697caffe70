package picos

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary strings at every flag/spec parser. None may
// panic, all must be case-insensitive, and whatever they accept must be
// stable: parsing the same spelling twice yields the same value.
// Checked-in seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "p8way", "P+8way", "8way", "16way",
		"fifo", "lifo", "FIFO",
		"credits", "slots",
		"avoid-deadlock", "avoid-deadlock-park", "SLOTS",
		"junk", "p8way ", "0", "\x00", "ﬁfo",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		upper := strings.ToUpper(s)
		if d1, err1 := ParseDesign(s); err1 == nil {
			if d2, err2 := ParseDesign(upper); err2 != nil || d1 != d2 {
				t.Fatalf("ParseDesign case-sensitive on %q: %v vs %v (%v)", s, d1, d2, err2)
			}
		}
		if p1, err1 := ParsePolicy(s); err1 == nil {
			if p2, err2 := ParsePolicy(upper); err2 != nil || p1 != p2 {
				t.Fatalf("ParsePolicy case-sensitive on %q: %v vs %v (%v)", s, p1, p2, err2)
			}
		}
		if a1, err1 := ParseAdmission(s); err1 == nil {
			if a2, err2 := ParseAdmission(upper); err2 != nil || a1 != a2 {
				t.Fatalf("ParseAdmission case-sensitive on %q: %v vs %v (%v)", s, a1, a2, err2)
			}
		}
	})
}
