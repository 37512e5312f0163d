package ldbms

import "testing"

// TestCommentedStatementsClassifiedByVerb checks that a leading comment
// does not hide a statement's verb from the commit-mode policy: DDL
// behind a comment still autocommits on an Ingres-like server, and a
// SELECT behind one stays off the redo list.
func TestCommentedStatementsClassifiedByVerb(t *testing.T) {
	srv := newUnited(t, ProfileIngresLike())
	sess, err := srv.OpenSession("united")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("UPDATE flight SET rates = 1.0 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("/* probe */ SELECT fn FROM flight"); err != nil {
		t.Fatal(err)
	}
	if redo := sess.Redo(); len(redo) != 1 {
		t.Fatalf("redo = %q, want only the UPDATE", redo)
	}
	if _, err := sess.Exec("-- note\nCREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if got := sess.State(); got != StateCommitted {
		t.Fatalf("state after commented CREATE = %s, want committed", got)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("SELECT a FROM t"); err != nil {
		t.Fatalf("table rolled back with the session: %v", err)
	}
	if f := rate(t, srv, 1); f != 1.0 {
		t.Fatalf("rates = %v, want the UPDATE committed with the DDL", f)
	}
}
