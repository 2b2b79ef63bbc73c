package clock

import (
	"testing"
	"time"
)

func TestAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Error("new clock must start at zero")
	}
	c.Advance(time.Second)
	c.Advance(500 * time.Millisecond)
	if c.Now() != 1500*time.Millisecond {
		t.Errorf("now = %v", c.Now())
	}
	if c.Now().Seconds() != 1.5 {
		t.Errorf("seconds = %g", c.Now().Seconds())
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(2 * time.Second)
	if c.Now() != 2*time.Second {
		t.Errorf("now = %v", c.Now())
	}
	c.AdvanceTo(2 * time.Second) // same instant is fine
	defer func() {
		if recover() == nil {
			t.Error("moving backward must panic")
		}
	}()
	c.AdvanceTo(time.Second)
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Error("negative advance must panic")
		}
	}()
	c.Advance(-time.Second)
}
