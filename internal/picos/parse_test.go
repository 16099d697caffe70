package picos

import "testing"

func TestParseDesign(t *testing.T) {
	cases := []struct {
		in   string
		want DMDesign
		ok   bool
	}{
		{"", DMP8Way, true},
		{"p8way", DMP8Way, true},
		{"P+8way", DMP8Way, true},
		{"8way", DM8Way, true},
		{"16WAY", DM16Way, true},
		{"32way", 0, false},
	}
	for _, c := range cases {
		got, err := ParseDesign(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseDesign(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != SchedFIFO {
		t.Fatalf("empty policy = %v, %v", p, err)
	}
	if p, err := ParsePolicy("LIFO"); err != nil || p != SchedLIFO {
		t.Fatalf("lifo = %v, %v", p, err)
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestParseAdmission(t *testing.T) {
	if a, err := ParseAdmission(""); err != nil || a != AdmitCredits {
		t.Fatalf("empty admission = %v, %v", a, err)
	}
	if a, err := ParseAdmission("slots"); err != nil || a != AdmitSlotsOnly {
		t.Fatalf("slots = %v, %v", a, err)
	}
	if _, err := ParseAdmission("open-door"); err == nil {
		t.Fatal("bogus admission accepted")
	}
}
