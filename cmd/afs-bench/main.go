// Command afs-bench regenerates the experiment tables. The paper has no
// measured tables of its own, so every experiment here is keyed to one
// of its figures or to a quantitative claim in its §3–§5 text: E1–E9,
// Fig. 2 and Fig. 4. What this repo adds beyond the paper (the segment
// log, sharding, mirroring, the replicated file table, the archive
// tier, tracing) is priced by the multi-process rig in benchmark/ and
// by the count tests (fsyncs, block calls, allocations) in the
// packages themselves.
//
//	afs-bench -exp all        # everything
//	afs-bench -exp e4         # one experiment
//	afs-bench -exp fig4       # print the Fig. 4 family tree
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

// experiment is one runnable table generator.
type experiment struct {
	name  string
	title string
	run   func() error
}

var experiments = []experiment{
	{"e1", "E1 (Fig. 3): page layout and 13-state flag codec", runE1},
	{"e2", "E2 (Fig. 4, §5.1): copy-on-write cost and storage sharing", runE2},
	{"e3", "E3 (Fig. 5, §5.2): sequential commit is (almost) free", runE3},
	{"e4", "E4 (Fig. 6, §5.2/§3.1): concurrency control comparison under contention", runE4},
	{"e5", "E5 (§5.2): serialisability test cost ∝ accessed-set intersection", runE5},
	{"e6", "E6 (§5.3): super-file locking and the soft-lock ablation", runE6},
	{"e7", "E7 (§5.4): cache validation without unsolicited messages", runE7},
	{"e8", "E8 (§4): paired block servers (stable storage)", runE8},
	{"e9", "E9 (§3.1, §5.4.1): crash recovery work", runE9},
	{"fig2", "Fig. 2: the file system is a tree of trees", runFig2},
	{"fig4", "Fig. 4: the family tree of a file", runFig4},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e9, fig2, fig4, all)")
	flag.Parse()

	want := strings.ToLower(*exp)
	names := make([]string, 0, len(experiments))
	ran := false
	for _, e := range experiments {
		names = append(names, e.name)
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s\n", e.title)
		fmt.Printf("================================================================\n")
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
	}
	if !ran {
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s, all\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// header prints a table header row.
func header(cols ...string) {
	for _, c := range cols {
		fmt.Printf("%-16s", c)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 16*len(cols)))
}

// cell formats one table cell.
func cell(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%-16.2f", x)
	default:
		return fmt.Sprintf("%-16v", v)
	}
}

// row prints one table row.
func row(cols ...any) {
	for _, c := range cols {
		fmt.Print(cell(c))
	}
	fmt.Println()
}
