package props

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt {
		t.Errorf("Int kind = %v", v.Kind())
	} else if n, ok := v.AsInt(); !ok || n != 42 {
		t.Errorf("AsInt = %d, %v", n, ok)
	}
	if v := StringVal("MIT"); v.GetStringOr() != "MIT" {
		t.Errorf("AsString mismatch")
	}
	if v := Bool(true); func() bool { b, ok := v.AsBool(); return b && ok }() != true {
		t.Error("AsBool(true) failed")
	}
	if v := Float(2.5); func() bool { f, ok := v.AsFloat(); return ok && f == 2.5 }() != true {
		t.Error("AsFloat failed")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("ints should widen to float")
	}
	if !Nil().IsNil() {
		t.Error("Nil().IsNil() = false")
	}
	if _, ok := StringVal("x").AsInt(); ok {
		t.Error("cross-kind accessor must fail")
	}
}

// GetStringOr is a test helper: the string payload or "".
func (v Value) GetStringOr() string {
	s, _ := v.AsString()
	return s
}

func TestValueOrdering(t *testing.T) {
	if !Int(1).Less(Int(2)) || Int(2).Less(Int(1)) {
		t.Error("int ordering broken")
	}
	if !StringVal("a").Less(StringVal("b")) {
		t.Error("string ordering broken")
	}
	if !Int(5).Less(StringVal("a")) {
		t.Error("kinds must order before payloads")
	}
}

func TestValueStringAndEncodeDecode(t *testing.T) {
	vals := []Value{Nil(), Bool(true), Bool(false), Int(-7), Float(3.25), StringVal("hello world")}
	for _, v := range vals {
		k, payload := v.Encode()
		got, err := Decode(k, payload)
		if err != nil {
			t.Errorf("Decode(%v, %q): %v", k, payload, err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := Decode(KindInt, "abc"); err == nil {
		t.Error("Decode bad int: want error")
	}
	if _, err := Decode(Kind(99), "x"); err == nil {
		t.Error("Decode unknown kind: want error")
	}
}

func TestPropsNewCloneEqual(t *testing.T) {
	p := New("type", "person", "school", "MIT", "editCount", 15)
	if p.Type() != "person" {
		t.Errorf("Type() = %q", p.Type())
	}
	if p.GetString("school") != "MIT" {
		t.Errorf("GetString(school) = %q", p.GetString("school"))
	}
	if p.GetInt("editCount") != 15 {
		t.Errorf("GetInt = %d", p.GetInt("editCount"))
	}
	q := p.Clone()
	if !p.Equal(q) {
		t.Error("clone not equal")
	}
	q = q.With("school", StringVal("CMU"))
	if p.Equal(q) {
		t.Error("derived set must not compare equal to original")
	}
	if p.GetString("school") != "MIT" {
		t.Error("original mutated through With on clone")
	}
	var zero Props
	if zero.Clone().Len() != 0 {
		t.Error("Clone of zero Props should be empty")
	}
	if !zero.Equal(Props{}) {
		t.Error("zero and empty props should be equal")
	}
}

func TestPropsNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"odd":     func() { New("a") },
		"non-str": func() { New(1, 2) },
		"badtype": func() { New("k", struct{}{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPropsWith(t *testing.T) {
	p := New("a", 1)
	q := p.With("b", Int(2))
	if p.Len() != 1 || q.Len() != 2 {
		t.Errorf("With should not mutate: p=%v q=%v", p, q)
	}
	if r := q.Without("b"); !r.Equal(p) {
		t.Errorf("Without(b) = %v, want %v", r, p)
	}
	if r := p.Without("never-seen-key-xyz"); !r.Equal(p) {
		t.Error("Without of absent key must be identity")
	}
	var nilP Props
	if r := nilP.With("x", Int(1)); r.GetInt("x") != 1 {
		t.Error("With on nil props failed")
	}
}

func TestPropsFingerprintAndString(t *testing.T) {
	a := New("type", "person", "school", "MIT")
	b := New("school", "MIT", "type", "person")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint must be order-independent")
	}
	c := New("school", "CMU", "type", "person")
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different props, same fingerprint")
	}
	if got, want := a.String(), "school=MIT, type=person"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if (Props{}).Fingerprint() != "" {
		t.Error("empty fingerprint should be empty string")
	}
}

func TestFingerprintCollisionResistance(t *testing.T) {
	// Keys/values containing the separator bytes must not collide.
	a := New("k", StringVal("x\x01y"))
	b := New("k", StringVal("x"), "y", nil)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint collision on separator bytes")
	}
}

func TestPropsEqualFingerprintAgreement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func() Props {
			var b Builder
			for i := 0; i < r.Intn(4); i++ {
				k := string(rune('a' + r.Intn(3)))
				switch r.Intn(3) {
				case 0:
					b.Set(k, Int(int64(r.Intn(3))))
				case 1:
					b.Set(k, StringVal(string(rune('x'+r.Intn(2)))))
				default:
					b.Set(k, Bool(r.Intn(2) == 0))
				}
			}
			return b.Build()
		}
		a, b := gen(), gen()
		return a.Equal(b) == (a.Fingerprint() == b.Fingerprint())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNil: "nil", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", Kind(42): "kind(42)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Nil(), "<nil>"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Float(math.Copysign(0, -1)), "-0"},
		{Float(1e21), "1e+21"},
		{Float(math.Inf(-1)), "-Inf"},
		{Int(math.MinInt64), "-9223372036854775808"},
		{StringVal("x"), "x"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", tc.v.Kind(), got, tc.want)
		}
		if got := string(tc.v.AppendTo([]byte("p="))); got != "p="+tc.want {
			t.Errorf("%v.AppendTo = %q, want %q", tc.v.Kind(), got, "p="+tc.want)
		}
	}
}

func TestValueLessFloatsAndStrings(t *testing.T) {
	if !Float(1.5).Less(Float(2.5)) || Float(2.5).Less(Float(1.5)) {
		t.Error("float ordering")
	}
	if Nil().Less(Nil()) {
		t.Error("nil not less than nil")
	}
	if _, ok := Nil().AsFloat(); ok {
		t.Error("nil AsFloat must fail")
	}
}

func TestPropsGet(t *testing.T) {
	p := New("a", 1)
	if v, ok := p.Get("a"); !ok || v.String() != "1" {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := p.Get("b"); ok {
		t.Error("Get(b) must miss")
	}
}

func TestPropsNewValueAndNilForms(t *testing.T) {
	p := New("v", Int(7), "n", nil, "i64", int64(9))
	if p.GetInt("v") != 7 || p.GetInt("i64") != 9 {
		t.Errorf("typed constructors: %v", p)
	}
	if !mustGet(p, "n").IsNil() {
		t.Error("nil literal should produce Nil value")
	}
}

func TestDecodeBadBool(t *testing.T) {
	if _, err := Decode(KindBool, "zz"); err == nil {
		t.Error("bad bool payload: want error")
	}
	if _, err := Decode(KindFloat, "zz"); err == nil {
		t.Error("bad float payload: want error")
	}
}
