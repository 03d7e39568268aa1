package report

import (
	"strings"
	"testing"
)

func TestSparklineDegenerate(t *testing.T) {
	svg := string(Sparkline([]float64{5, 5, 5}, 100, 30))
	if !strings.Contains(svg, "polyline") {
		t.Error("constant series should still render")
	}
	if Sparkline(nil, 100, 30) != "" {
		t.Error("empty input should render nothing")
	}
}
