package bench

import (
	"bytes"
	"testing"
)

// e15Golden is E15's output as captured before the cleaning oracle moved
// onto the provenance index: the table has no timing columns, so any
// change in which view tuples count as touched, or in the order the
// feedback draws its random numbers, shows up here.
const e15Golden = `== E15 (extension): planted-error recovery vs feedback completeness ==
feedback fraction  planted  marked view tuples  deleted  precision  recall  side effect
-----------------  -------  ------------------  -------  ---------  ------  -----------
0.25               5.2      2.3                 1.8      0.611      0.272   3.67
0.50               5.2      6.3                 3.0      0.917      0.547   4.67
0.75               5.2      10.3                3.7      0.958      0.693   2.50
1.00               5.2      13.7                4.0      0.958      0.765   0.00

shape to check: recall rises with feedback completeness (the paper's §V claim).

`

func TestCleaningGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runCleaning(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != e15Golden {
		t.Errorf("E15 output\n%s\nwant\n%s", got, e15Golden)
	}
}
