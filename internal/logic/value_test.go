package logic

import "testing"

func TestV3Strings(t *testing.T) {
	cases := map[V3]string{Zero: "0", One: "1", X: "X"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(v), got, want)
		}
	}
	if got := V3(9).String(); got != "V3(9)" {
		t.Errorf("invalid value String() = %q", got)
	}
}

func TestV3Not(t *testing.T) {
	if Zero.Not() != One || One.Not() != Zero || X.Not() != X {
		t.Fatal("three-valued complement wrong")
	}
}

func TestV3ZeroValueIsX(t *testing.T) {
	var v V3
	if v != X {
		t.Fatal("zero value of V3 must be X")
	}
}

func TestAnd3TruthTable(t *testing.T) {
	cases := []struct{ a, b, want V3 }{
		{Zero, Zero, Zero}, {Zero, One, Zero}, {One, Zero, Zero},
		{One, One, One},
		{Zero, X, Zero}, {X, Zero, Zero},
		{One, X, X}, {X, One, X}, {X, X, X},
	}
	for _, c := range cases {
		if got := And3(c.a, c.b); got != c.want {
			t.Errorf("And3(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOr3TruthTable(t *testing.T) {
	cases := []struct{ a, b, want V3 }{
		{Zero, Zero, Zero}, {Zero, One, One}, {One, Zero, One},
		{One, One, One},
		{One, X, One}, {X, One, One},
		{Zero, X, X}, {X, Zero, X}, {X, X, X},
	}
	for _, c := range cases {
		if got := Or3(c.a, c.b); got != c.want {
			t.Errorf("Or3(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestXor3TruthTable(t *testing.T) {
	cases := []struct{ a, b, want V3 }{
		{Zero, Zero, Zero}, {Zero, One, One}, {One, Zero, One}, {One, One, Zero},
		{Zero, X, X}, {X, One, X}, {X, X, X},
	}
	for _, c := range cases {
		if got := Xor3(c.a, c.b); got != c.want {
			t.Errorf("Xor3(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBitConversions(t *testing.T) {
	if FromBit(0) != Zero || FromBit(1) != One || FromBit(2) != One {
		t.Fatal("FromBit wrong")
	}
	if Zero.Bit() != 0 || One.Bit() != 1 {
		t.Fatal("Bit wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bit on X did not panic")
		}
	}()
	X.Bit()
}
