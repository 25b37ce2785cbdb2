package obs

import (
	"strings"
	"testing"
)

// TestCheckPromRejectsBadInput: the validator must actually validate.
func TestCheckPromRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"duplicate series": "# TYPE a counter\na 1\na 2\n",
		"bad name":         "# TYPE ok counter\n9bad 1\n",
		"bad escape":       "# TYPE a counter\na{l=\"x\\q\"} 1\n",
		"type after use":   "a 1\n# TYPE a counter\n",
		"bad value":        "# TYPE a counter\na one\n",
		"unclosed label":   "# TYPE a counter\na{l=\"x} 1\n",
		"non-cumulative histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 6\nh_sum 1\n",
		"missing inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_count 5\nh_sum 1\n",
	}
	for name, in := range cases {
		if _, err := CheckProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid exposition:\n%s", name, in)
		}
	}
}
