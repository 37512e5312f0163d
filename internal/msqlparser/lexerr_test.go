package msqlparser

import "testing"

// TestLexerErrorPrecedence pins that a lexing error anywhere in an MSQL
// script wins over syntax and trailing-input errors, with the lexer's
// own message.
func TestLexerErrorPrecedence(t *testing.T) {
	cases := []struct {
		name, src, want string
		single          bool
	}{
		{"after syntax error", "SELECT 1 2 'oops", "unterminated string literal at offset 11", false},
		{"after complete statement", "SELECT a FROM t; 'oops", "unterminated string literal at offset 17", false},
		{"single statement, trailing", "SELECT a FROM t; 'oops", "unterminated string literal at offset 17", true},
		{"single statement, after syntax error", "USE 1 2 @", "unexpected character '@' at offset 8", true},
		{"script statement", "USE avis; LET x BE y; SELECT x FROM t WHERE a = @b", "unexpected character '@' at offset 48", false},
		{"inside multitransaction", "BEGIN MULTITRANSACTION USE a; UPDATE t SET x = 'oops END MULTITRANSACTION", "unterminated string literal at offset 47", false},
		{"after multitransaction syntax error", "BEGIN MULTITRANSACTION USE a; UPDATE t SET = 1; COMMIT x END MULTITRANSACTION @", "unexpected character '@' at offset 78", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if c.single {
				_, err = ParseStatement(c.src)
			} else {
				_, err = Parse(c.src)
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("parse %q: err = %v, want %q", c.src, err, c.want)
			}
		})
	}
}
