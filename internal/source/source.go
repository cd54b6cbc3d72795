// Package source provides source positions, spans, and diagnostic
// reporting shared by every phase of the compiler.
package source

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Pos identifies a location in a source file by line and column,
// both 1-based. The zero Pos is "no position".
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p denotes a real source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the text of String ("line:col", or "-" for no
// position) to b.
func (p Pos) AppendTo(b []byte) []byte {
	if !p.IsValid() {
		return append(b, '-')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	return strconv.AppendInt(append(b, ':'), int64(p.Col), 10)
}

// Before reports whether p appears strictly before q in the file.
func (p Pos) Before(q Pos) bool {
	return p.Line < q.Line || (p.Line == q.Line && p.Col < q.Col)
}

// Span is a contiguous range of source text.
type Span struct {
	Start Pos
	End   Pos
}

func (s Span) String() string { return s.Start.String() }

// Severity classifies a diagnostic.
type Severity int

const (
	// Error diagnostics abort compilation after the current phase.
	Error Severity = iota
	// Warning diagnostics are advisory.
	Warning
	// Note diagnostics attach supplementary information.
	Note
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Note:
		return "note"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnostic is a single compiler message anchored at a position.
type Diagnostic struct {
	Severity Severity
	Pos      Pos
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// ErrorList collects diagnostics produced while processing one file.
// The zero value is ready to use.
type ErrorList struct {
	File  string
	Diags []Diagnostic
}

// Errorf records an error diagnostic at pos.
func (l *ErrorList) Errorf(pos Pos, format string, args ...interface{}) {
	l.Diags = append(l.Diags, Diagnostic{Error, pos, fmt.Sprintf(format, args...)})
}

// Warnf records a warning diagnostic at pos.
func (l *ErrorList) Warnf(pos Pos, format string, args ...interface{}) {
	l.Diags = append(l.Diags, Diagnostic{Warning, pos, fmt.Sprintf(format, args...)})
}

// Notef records a note diagnostic at pos.
func (l *ErrorList) Notef(pos Pos, format string, args ...interface{}) {
	l.Diags = append(l.Diags, Diagnostic{Note, pos, fmt.Sprintf(format, args...)})
}

// HasErrors reports whether any diagnostic has Error severity.
func (l *ErrorList) HasErrors() bool {
	for _, d := range l.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// ErrorCount returns the number of Error-severity diagnostics.
func (l *ErrorList) ErrorCount() int {
	n := 0
	for _, d := range l.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Sort orders diagnostics by position, keeping insertion order for ties.
func (l *ErrorList) Sort() {
	sort.SliceStable(l.Diags, func(i, j int) bool {
		return l.Diags[i].Pos.Before(l.Diags[j].Pos)
	})
}

// Err returns an error summarizing the list, or nil if it holds no errors.
func (l *ErrorList) Err() error {
	if !l.HasErrors() {
		return nil
	}
	return l
}

// Error implements the error interface, rendering every diagnostic
// on its own line, prefixed with the file name when known.
func (l *ErrorList) Error() string {
	var b strings.Builder
	for i, d := range l.Diags {
		if i > 0 {
			b.WriteByte('\n')
		}
		if l.File != "" {
			b.WriteString(l.File)
			b.WriteByte(':')
		}
		b.WriteString(d.String())
	}
	return b.String()
}
