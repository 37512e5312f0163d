package experiments

import (
	"testing"

	"msql/internal/demo"
)

// dolTexts runs script on a fresh demo federation and returns the DOL
// text of every result that carries a program, read after the script
// has finished.
func dolTexts(t *testing.T, script string, dryRun bool) []string {
	t.Helper()
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fed.DryRun = dryRun
	results, err := fed.ExecScript(script)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range results {
		if text := r.DOL(); text != "" {
			out = append(out, text)
		}
	}
	return out
}

// A result's DOL text is rendered on first read, after the program has
// run. It must be byte-identical to the program as translated, which a
// dry run (translation only, nothing executed) shows.
func TestLazyDOLMatchesPlanTimeText(t *testing.T) {
	for _, tc := range []struct{ name, script string }{
		{"section2", Section2Query},
		{"section3.2", Section32Update},
		{"section3.3", Section33Update},
		{"section3.4", Section34MultiTx},
		// ANALYZE rewrites the program's task bodies before running it.
		{"explain-analyze", "USE continental delta\nEXPLAIN ANALYZE SELECT flnu, rate FROM flights WHERE rate > 0"},
	} {
		script := tc.script
		t.Run(tc.name, func(t *testing.T) {
			planned := dolTexts(t, script, true)
			ran := dolTexts(t, script, false)
			if len(planned) == 0 || len(planned) != len(ran) {
				t.Fatalf("%d programs planned, %d run", len(planned), len(ran))
			}
			for i := range planned {
				if ran[i] != planned[i] {
					t.Fatalf("program %d: text after execution differs from plan time\nplanned:\n%s\nafter:\n%s",
						i, planned[i], ran[i])
				}
			}
		})
	}
}
