package main

import (
	"strings"
	"testing"

	"msql/internal/demo"
)

func TestPaperExampleTranslates(t *testing.T) {
	fed, err := demo.Build(demo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fed.DryRun = true
	results, err := fed.ExecScript(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	var dolText string
	for _, r := range results {
		if r.DOL() != "" {
			dolText = r.DOL()
		}
	}
	for _, want := range []string{
		"TASK T1 NOCOMMIT FOR continental",
		"IF (T1=P) AND (T3=P) THEN",
		"CLOSE continental delta united;",
	} {
		if !strings.Contains(dolText, want) {
			t.Errorf("missing %q:\n%s", want, dolText)
		}
	}
}
