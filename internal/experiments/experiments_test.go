package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, out *float64) (int, error) { return fmt.Sscan(s, out) }

// TestE8MatchesFigure3 pins the E8 reproduction to the paper's tree: five
// nodes, split points (1,1,2) and (1,2,2).
func TestE8MatchesFigure3(t *testing.T) {
	tables := E8RunningExample()
	tree := tables[0].String()
	if !strings.Contains(tree, "(1, 1, 2)") || !strings.Contains(tree, "(1, 2, 2)") {
		t.Errorf("E8 tree lacks the Figure 3 split points:\n%s", tree)
	}
	if len(tables[0].Rows) != 5 {
		t.Errorf("E8 tree has %d nodes, want 5", len(tables[0].Rows))
	}
	dict := tables[1]
	if len(dict.Rows) != 2 {
		t.Errorf("E8 dictionary for (1,1,1) has %d entries, want 2 (Example 15):\n%s",
			len(dict.Rows), dict.String())
	}
}

// TestE9MatchesClosedForms pins the optimizer LP outputs to the paper's
// closed-form exponents within tolerance.
func TestE9MatchesClosedForms(t *testing.T) {
	tables := E9Optimizer(10000)
	for _, row := range tables[0].Rows {
		lp, paper := row[2], row[3]
		if lp != paper {
			// Values are formatted with %.4g; compare as strings first,
			// then loosely.
			if !closeStr(lp, paper, 0.01) {
				t.Errorf("E9 %s: LP %s vs paper %s", row[0], lp, paper)
			}
		}
	}
}

func closeStr(a, b string, tol float64) bool {
	var x, y float64
	if _, err := fmtSscan(a, &x); err != nil {
		return false
	}
	if _, err := fmtSscan(b, &y); err != nil {
		return false
	}
	d := x - y
	if d < 0 {
		d = -d
	}
	return d <= tol
}
