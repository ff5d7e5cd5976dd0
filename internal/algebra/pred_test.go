package algebra

import (
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func item(s string) *xmltree.Node { return xmltree.MustParse(s) }

func TestCmpNumeric(t *testing.T) {
	it := item(`<item><price>9.50</price><qty>3</qty></item>`)
	cases := []struct {
		pred string
		want bool
	}{
		{"price < 10", true},
		{"price <= 9.50", true},
		{"price > 10", false},
		{"price >= 9.5", true},
		{"price = 9.5", true},
		{"price != 9.5", false},
		{"qty = 3", true},
		{"qty < 2", false},
	}
	for _, c := range cases {
		p := MustParsePredicate(c.pred)
		if got := p.Eval(it); got != c.want {
			t.Errorf("%q = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestCmpString(t *testing.T) {
	it := item(`<item><name>Armchair deluxe</name><city>Portland</city></item>`)
	cases := []struct {
		pred string
		want bool
	}{
		{"city = 'Portland'", true},
		{"city = 'Seattle'", false},
		{"city != 'Seattle'", true},
		{"name contains 'chair'", true},
		{"name contains 'CHAIR'", true}, // case-insensitive
		{"name contains 'sofa'", false},
		{"city < 'Q'", true}, // lexicographic
	}
	for _, c := range cases {
		p := MustParsePredicate(c.pred)
		if got := p.Eval(it); got != c.want {
			t.Errorf("%q = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestBooleanCombinators(t *testing.T) {
	it := item(`<item><price>8</price><city>Portland</city><img/></item>`)
	cases := []struct {
		pred string
		want bool
	}{
		{"price < 10 and city = 'Portland'", true},
		{"price < 5 and city = 'Portland'", false},
		{"price < 5 or city = 'Portland'", true},
		{"not price < 5", true},
		{"exists img", true},
		{"exists video", false},
		{"true", true},
		{"(price < 5 or price > 7) and exists img", true},
		{"not (price < 5 or city = 'Portland')", false},
	}
	for _, c := range cases {
		p, err := ParsePredicate(c.pred)
		if err != nil {
			t.Fatalf("parse %q: %v", c.pred, err)
		}
		if got := p.Eval(it); got != c.want {
			t.Errorf("%q = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestPrecedence(t *testing.T) {
	// "a or b and c" must parse as a or (b and c).
	it := item(`<i><a>1</a><b>0</b><c>0</c></i>`)
	p := MustParsePredicate("a = 1 or b = 1 and c = 1")
	if !p.Eval(it) {
		t.Fatal("or/and precedence wrong")
	}
}

func TestNestedPaths(t *testing.T) {
	it := item(`<item><seller><loc><city>Portland</city></loc></seller></item>`)
	p := MustParsePredicate("seller/loc/city = 'Portland'")
	if !p.Eval(it) {
		t.Fatal("nested path predicate failed")
	}
}

func TestParseErrorsPred(t *testing.T) {
	for _, bad := range []string{
		"",
		"price <",
		"price ~ 3",
		"(price < 3",
		"price < 3 extra stuff",
		"and price < 3",
		"exists",
	} {
		if _, err := ParsePredicate(bad); err == nil {
			t.Errorf("ParsePredicate(%q): want error", bad)
		}
	}
}

func TestPredicateStringRoundTrip(t *testing.T) {
	preds := []string{
		"price < 10",
		"city = 'Portland'",
		"name contains 'golf club'",
		"(price <= 10 and city = 'Portland')",
		"not exists sold",
		"(a = 1 or (b = 2 and not c = 3))",
		"true",
	}
	it := item(`<i><price>5</price><city>Portland</city><a>1</a><b>2</b><c>9</c><name>golf club set</name></i>`)
	for _, s := range preds {
		p := MustParsePredicate(s)
		back, err := ParsePredicate(p.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", p.String(), s, err)
		}
		if p.Eval(it) != back.Eval(it) {
			t.Errorf("round trip of %q changed semantics", s)
		}
	}
}

func TestQuotedEscapes(t *testing.T) {
	it := item(`<i><n>O'Reilly</n></i>`)
	p := Cmp{Path: "n", Op: OpEq, Value: "O'Reilly"}
	if !Prepare(p).Eval(it) {
		t.Fatal("direct eval failed")
	}
	back, err := ParsePredicate(p.String())
	if err != nil {
		t.Fatalf("reparse escaped literal: %v", err)
	}
	if !back.Eval(it) {
		t.Fatal("escaped literal round trip failed")
	}
}

func TestMissingPathComparisons(t *testing.T) {
	it := item(`<i><a>1</a></i>`)
	// Missing path yields "" which compares lexicographically.
	if MustParsePredicate("zz = ''").Eval(it) != true {
		t.Fatal("missing path should equal empty string")
	}
	// Missing path vs number falls back to lexicographic: "" < "5".
	if !MustParsePredicate("zz < 5").Eval(it) {
		t.Fatal("missing path vs number should compare lexicographically")
	}
}

// Property: Not(p) always evaluates to the complement of p.
func TestPropertyNotComplement(t *testing.T) {
	it := item(`<i><price>7</price><city>Portland</city></i>`)
	preds := []Predicate{
		MustParsePredicate("price < 10"),
		MustParsePredicate("city = 'Seattle'"),
		MustParsePredicate("exists price"),
		True{},
	}
	f := func(i uint8) bool {
		p := preds[int(i)%len(preds)]
		return Prepare(Not{P: p}).Eval(it) == !Prepare(p).Eval(it)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
