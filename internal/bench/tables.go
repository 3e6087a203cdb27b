package bench

import (
	"fmt"
	"io"

	"delprop/internal/benchkit"
	"delprop/internal/classify"
	"delprop/internal/fd"
)

// corpusTable renders the executable rows of one paper table by running
// the deciders, plus the static (parameterized / beyond-NP) rows verbatim.
func corpusTable(w io.Writer, table, title string, source bool) error {
	t := &Table{
		Title:   title,
		Headers: []string{"query class", "citation", "decided class", "query"},
	}
	for _, e := range classify.Corpus() {
		if e.Table != table {
			continue
		}
		var deps *fd.Set
		if e.WithFDs {
			var err error
			deps, err = classify.VariableFDs(e.Query, e.Schemas)
			if err != nil {
				return err
			}
		}
		props, err := classify.Analyze(e.Query, e.Schemas, deps)
		if err != nil {
			return err
		}
		got, want := classify.ViewSideEffect(props, e.WithFDs), e.ExpectView
		if source {
			got, want = classify.SourceSideEffect(props, e.WithFDs), e.ExpectSource
		}
		status := string(got)
		if want != "" && got != want {
			status = fmt.Sprintf("%s (MISMATCH, paper: %s)", got, want)
		}
		t.Add(e.Name, e.Citation, status, e.Query.String())
	}
	for _, r := range classify.StaticCorpus() {
		if r.Table != table {
			continue
		}
		t.Add(r.QueryClass, r.Citation, r.Class+" (static row)", "—")
	}
	t.Fprint(w)
	return nil
}

func runTable2(w io.Writer, _ *benchkit.Recorder) error {
	return corpusTable(w, "II", "Table II: poly-tractable cases of the source side-effect problem", true)
}

func runTable3(w io.Writer, _ *benchkit.Recorder) error {
	return corpusTable(w, "III", "Table III: hard cases of the source side-effect problem", true)
}

func runTable4(w io.Writer, _ *benchkit.Recorder) error {
	return corpusTable(w, "IV", "Table IV: poly-tractable cases of the view side-effect problem", false)
}

func runTable5(w io.Writer, _ *benchkit.Recorder) error {
	return corpusTable(w, "V", "Table V: hard cases of the view side-effect problem", false)
}
