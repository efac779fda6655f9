package topics

import "testing"

func TestBasics(t *testing.T) {
	s := NewSet(70)
	for _, f := range []int{0, 63, 64, 69} {
		if s.Has(f) {
			t.Errorf("topic %d should start absent", f)
		}
		s.Add(f)
		if !s.Has(f) {
			t.Errorf("topic %d should be present", f)
		}
	}
	if s.IsEmpty() {
		t.Error("set is not empty")
	}
	if !NewSet(3).IsEmpty() {
		t.Error("fresh set should be empty")
	}
	if s.Vocabulary() != 70 || s.SizeBytes() != 16 {
		t.Errorf("Vocabulary=%d SizeBytes=%d", s.Vocabulary(), s.SizeBytes())
	}
	if o := SetOf(10, 1, 2); !o.Has(1) || !o.Has(2) || o.Has(3) {
		t.Error("SetOf(10, 1, 2) holds the wrong topics")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad vocab": func() { NewSet(0) },
		"add oob":   func() { NewSet(3).Add(3) },
		"has oob":   func() { NewSet(3).Has(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}
