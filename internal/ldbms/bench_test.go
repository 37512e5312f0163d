package ldbms

import (
	"fmt"
	"strings"
	"testing"

	"msql/internal/relstore"
)

// loadStatements renders that many orders-shaped rows (integer key, two
// integers, a 36-character note) as 250-row INSERT statements.
func loadStatements(rows int) []string {
	var out []string
	for lo := 1; lo <= rows; lo += 250 {
		var b strings.Builder
		b.WriteString("INSERT INTO orders VALUES ")
		for id := lo; id < lo+250 && id <= rows; id++ {
			if id > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, '%036d')", id, 1+id%6000, id*7%10000, id)
		}
		out = append(out, b.String())
	}
	return out
}

// BenchmarkLoadRows loads 12 000 orders rows through Session.Exec into a
// disk-backed store with a 48-page buffer pool, then commits: the path
// every site load and every shipped INSERT batch takes.
func BenchmarkLoadRows(b *testing.B) {
	stmts := loadStatements(12000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := relstore.Open(relstore.Options{Dir: b.TempDir(), PoolPages: 48})
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServerWith("bench", ProfileOracleLike(), 1, store)
		if err := srv.CreateDatabase("j0"); err != nil {
			b.Fatal(err)
		}
		sess, err := srv.OpenSession("j0")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Exec("CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust INTEGER, amt INTEGER, note CHAR(40))"); err != nil {
			b.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range stmts {
			if _, err := sess.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sess.Close()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
