package parser

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/soak"
	"repro/internal/source"
)

// The parser must never panic, whatever bytes arrive.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", input, r)
				ok = false
			}
		}()
		var errs source.ErrorList
		Parse(input, &errs)
		return true
	}
	if err := quick.Check(f, soak.Config(t, 300, 1)); err != nil {
		t.Error(err)
	}
}

// Mutations of a valid program must also never panic, and must either
// parse or produce diagnostics — never both fail silently.
func TestQuickMutatedProgram(t *testing.T) {
	base := `
program mut;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := B@(1,0) + 2.0;
  s := +<< [R] A;
  writeln(s);
end;
`
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic (seed %d): %v", seed, r)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		b := []byte(base)
		for i := 0; i < 1+r.Intn(5); i++ {
			switch r.Intn(3) {
			case 0: // delete a byte
				p := r.Intn(len(b))
				b = append(b[:p], b[p+1:]...)
			case 1: // duplicate a byte
				p := r.Intn(len(b))
				b = append(b[:p], append([]byte{b[p]}, b[p:]...)...)
			case 2: // replace with random printable
				b[r.Intn(len(b))] = byte(32 + r.Intn(95))
			}
		}
		var errs source.ErrorList
		Parse(string(b), &errs)
		return true
	}
	if err := quick.Check(f, soak.Config(t, 300, 2)); err != nil {
		t.Error(err)
	}
}
