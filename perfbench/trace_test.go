package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
	}
	for _, st := range selfTimes(spans) {
		if st.Name == "op" && st.SelfMs != 50e-6 {
			t.Errorf("op self %g ms, want 50ns: children cover 10..60 once", st.SelfMs)
		}
	}
}
