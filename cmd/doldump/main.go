// Command doldump shows the DOL evaluation plans the translator generates
// for an MSQL script, without executing any subquery — the tool used to
// reproduce the Section 4.3 program listing of the paper.
//
// Usage:
//
//	doldump -f script.msql
//	echo "USE continental VITAL delta united VITAL
//	      UPDATE flight% SET rate% = rate% * 1.1
//	      WHERE sour% = 'Houston' AND dest% = 'San Antonio'" | doldump
//	doldump -paper   # dump the plan for the paper's §3.2 example
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"msql/internal/demo"
)

const paperExample = `
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`

func main() {
	var (
		file     = flag.String("f", "", "MSQL script file")
		paper    = flag.Bool("paper", false, "dump the paper's Section 3.2/4.3 example")
		autoCont = flag.Bool("autocommit-cont", false, "continental on an autocommit-only service")
	)
	flag.Parse()

	var src string
	switch {
	case *paper:
		src = paperExample
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	default:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	}

	fed, err := demo.Build(demo.Options{ContinentalAutoCommit: *autoCont})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bootstrap:", err)
		os.Exit(1)
	}
	fed.DryRun = true
	results, err := fed.ExecScript(src)
	n := 0
	for _, r := range results {
		if r.DOL() == "" {
			continue
		}
		n++
		fmt.Printf("-- plan %d --\n", n)
		fmt.Print(r.DOL())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
