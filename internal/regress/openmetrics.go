// A minimal OpenMetrics text parser — just enough to reload the
// simulator's own deterministic exposition. Sample lines are
// "name{labels} value" or "name value"; the full series identity
// (name plus label set, exactly as exposed) is the map key, so label
// ordering differences would register as added/removed series rather
// than silently aliasing.
package regress

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrBadOpenMetrics is the typed error every ParseOpenMetrics failure
// wraps: a sample line with no value, a value that is not a float, a
// duplicate series, or a scanner failure (a line over 1 MiB, a read
// error). Match with errors.Is(err, ErrBadOpenMetrics).
var ErrBadOpenMetrics = errors.New("regress: bad OpenMetrics")

// ParseOpenMetrics reads a text exposition into series → value. Comment
// lines (# HELP/# TYPE/# EOF) are skipped.
func ParseOpenMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space. Label values may contain spaces,
		// but those all precede the closing brace, so the last space always
		// separates the float value.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 || cut == len(line)-1 {
			return nil, fmt.Errorf("%w: line %d: no value in %q", ErrBadOpenMetrics, lineNo, line)
		}
		key, valStr := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad value %q: %w", ErrBadOpenMetrics, lineNo, valStr, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%w: line %d: duplicate series %s", ErrBadOpenMetrics, lineNo, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOpenMetrics, err)
	}
	return out, nil
}
