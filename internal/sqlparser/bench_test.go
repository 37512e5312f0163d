package sqlparser

import (
	"fmt"
	"strings"
	"testing"
)

const benchQuery = `SELECT DISTINCT f.source, COUNT(*) AS n, AVG(rate) r
FROM flights f, f838 s
WHERE f.rate > 100 AND s.seatstatus <> 'FREE' AND f.day IN ('mon', 'tue')
GROUP BY f.source HAVING COUNT(*) > 2
ORDER BY n DESC, f.source LIMIT 10`

func BenchmarkParseSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatement(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseUpdate(b *testing.B) {
	const q = "UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'"
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatement(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeparse(b *testing.B) {
	s, err := ParseStatement(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Deparse(s) == "" {
			b.Fatal("empty deparse")
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRewrite(b *testing.B) {
	s, err := ParseStatement(benchQuery)
	if err != nil {
		b.Fatal(err)
	}
	rw := Rewriter{
		Table: func(n ObjectName) ObjectName { return n },
		Col:   func(c ColRef) Expr { return c },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if RewriteStatement(s, rw) == nil {
			b.Fatal("nil rewrite")
		}
	}
}

// benchInsert is one 250-row multi-row INSERT shaped like the rows a
// site load or a DOL SHIP sends: integers, a float, a string with a
// doubled quote, a negative number and NULL.
var benchInsert = func() string {
	var b strings.Builder
	b.WriteString("INSERT INTO orders VALUES ")
	for i := 0; i < 250; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d.5, 'note %d for O''Hare', -%d, NULL)", i+1, i%97, i*3, i, i%7)
	}
	return b.String()
}()

func BenchmarkParseInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatement(benchInsert); err != nil {
			b.Fatal(err)
		}
	}
}
