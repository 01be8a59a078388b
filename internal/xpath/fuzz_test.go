package xpath

import "testing"

// FuzzParse checks that any accepted query round-trips through the
// printer and never panics. Run the seed corpus with go test, or fuzz
// with go test -fuzz=FuzzParse ./internal/xpath.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		".",
		"a/b/c",
		"//dept//patientInfo/patient/name",
		"(a | b)/c[d and e]",
		`a[b = "6" or not(c)]`,
		"a[b = $w]",
		`x[@accessibility = "1"]`,
		`a[b = 'say "hi"']`,
		`a[@dir = "c:\tmp"]`,
		"text()",
		"∅ | a",
		"a[.[b] and c/d]",
		"((//a)//b)[c]",
		"a[@id]",
		`a[@id and not(@ssn)]`,
		"a[",
		"]]]",
		"a//",
		"not(a)",
		"a | | b",
		"𝛆/weird-unicode",
		// Steps named like qualifier keywords print parenthesized.
		"a[(not)]",
		"a[(true/x) = 1]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := String(p)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", out, src, err)
		}
		if !Equal(p, p2) {
			t.Fatalf("round trip changed %q: printed %q reparsed %q", src, out, String(p2))
		}
	})
}

// FuzzParseQual does the same for bare qualifiers.
func FuzzParseQual(f *testing.F) {
	for _, seed := range []string{
		"a",
		"a and b",
		`a = "1" or not(b/c)`,
		"not(not(a))",
		"@x = 'v'",
		"true() and false()",
		"a and",
		"(not)",
		"(false | x)[not(y)]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQual(src)
		if err != nil {
			return
		}
		out := QualString(q)
		q2, err := ParseQual(out)
		if err != nil {
			t.Fatalf("printed qualifier %q of %q does not reparse: %v", out, src, err)
		}
		if !QualEqual(q, q2) {
			t.Fatalf("round trip changed %q: printed %q", src, out)
		}
	})
}
