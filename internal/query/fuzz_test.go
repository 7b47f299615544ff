package query_test

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
)

// FuzzParseQuery: parsing arbitrary text never panics; text that parses
// prints to a fixpoint (parse, String, parse again gives the same
// String); and analysing and compiling a parsed query against the paper's
// tracepoints, with Q8 installed for subquery joins, returns errors but
// never panics.
func FuzzParseQuery(f *testing.F) {
	for _, text := range query.PaperQueries {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := query.Parse(text)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := query.Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed from %q): %v", printed, text, err)
		}
		if again := q2.String(); again != printed {
			t.Fatalf("print/parse is not a fixpoint:\n  %s\n  %s", printed, again)
		}

		// Analysis resolves sources in place, so each step gets its own
		// parse of the query and of Q8.
		named := func() map[string]*query.Query {
			q8, err := query.Parse(query.PaperQueries["Q8"])
			if err != nil {
				t.Fatal(err)
			}
			q8.Name = "Q8"
			return map[string]*query.Query{"Q8": q8}
		}
		reg := query.TestRegistry()
		_, _ = query.Analyze(q, reg, named())
		_, _ = plan.Compile(q2, reg, named(), plan.Optimized)
	})
}
