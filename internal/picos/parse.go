package picos

import (
	"fmt"
	"strings"
)

// ParseDesign resolves a DM design from its flag/spec spelling. The
// empty string means the default (Pearson 8-way, the paper's shipping
// configuration).
func ParseDesign(s string) (DMDesign, error) {
	switch strings.ToLower(s) {
	case "", "p8way", "p+8way":
		return DMP8Way, nil
	case "8way":
		return DM8Way, nil
	case "16way":
		return DM16Way, nil
	default:
		return 0, fmt.Errorf("picos: unknown DM design %q (want 8way, 16way or p8way)", s)
	}
}

// ParsePolicy resolves a Task Scheduler policy; empty means FIFO.
func ParsePolicy(s string) (SchedPolicy, error) {
	switch strings.ToLower(s) {
	case "", "fifo":
		return SchedFIFO, nil
	case "lifo":
		return SchedLIFO, nil
	default:
		return 0, fmt.Errorf("picos: unknown TS policy %q (want fifo or lifo)", s)
	}
}

// ParseAdmission resolves a Gateway admission policy; empty means the
// credit-reserving default.
func ParseAdmission(s string) (AdmissionPolicy, error) {
	switch strings.ToLower(s) {
	case "", "credits":
		return AdmitCredits, nil
	case "slots":
		return AdmitSlotsOnly, nil
	case "avoid-deadlock":
		return AdmitAvoidDeadlock, nil
	case "avoid-deadlock-park":
		return AdmitAvoidDeadlockPark, nil
	default:
		return 0, fmt.Errorf("picos: unknown admission policy %q (want credits, slots, avoid-deadlock or avoid-deadlock-park)", s)
	}
}
