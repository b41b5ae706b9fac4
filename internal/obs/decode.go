// JSONL decoding: the inverse of Buffer.WriteJSONL, so exported event
// streams can be reloaded for post-hoc analysis (internal/analysis) and
// cross-run diffing (cmd/tgdiff). Args are decoded with their recorded
// order preserved and integers kept integral, so decode(encode(events))
// re-encodes byte-identically — the regression differ depends on that.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/tgsim/tgmod/internal/des"
)

// ErrBadJSONL is the typed error every ReadJSONL failure wraps: a line
// that is not a JSON object, a phase that is not one byte, args that are
// not an object of scalars, a line over the 1 MiB cap, or a read error.
// ReadJSONL never panics on corrupt input; match with
// errors.Is(err, ErrBadJSONL).
var ErrBadJSONL = errors.New("obs: bad jsonl")

// jsonlEnvelope mirrors one WriteJSONL line, args left raw so their key
// order survives.
type jsonlEnvelope struct {
	T     float64         `json:"t"`
	Ph    string          `json:"ph"`
	Cat   string          `json:"cat"`
	Name  string          `json:"name"`
	Track string          `json:"track"`
	ID    int64           `json:"id"`
	Args  json.RawMessage `json:"args"`
}

// decodeArgs walks a JSON object with a token decoder, preserving key order.
// Values are the scalar types Record accepts: string, bool, int64, float64.
func decodeArgs(raw json.RawMessage) ([]KV, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("args is not an object")
	}
	var kvs []KV
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("non-string arg key %v", keyTok)
		}
		valTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		var v any
		switch x := valTok.(type) {
		case json.Number:
			if i, err := x.Int64(); err == nil {
				v = i
			} else if f, err := x.Float64(); err == nil {
				v = f
			} else {
				return nil, fmt.Errorf("unparsable number %q", x.String())
			}
		case string:
			v = x
		case bool:
			v = x
		case nil:
			v = ""
		default:
			return nil, fmt.Errorf("arg %q has non-scalar value", key)
		}
		kvs = append(kvs, KV{Key: key, Value: v})
	}
	return kvs, nil
}

// ReadJSONL parses an event stream previously written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env jsonlEnvelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("%w: line %d: %w", ErrBadJSONL, lineNo, err)
		}
		if len(env.Ph) != 1 {
			return nil, fmt.Errorf("%w: line %d: bad phase %q", ErrBadJSONL, lineNo, env.Ph)
		}
		ev := Event{
			At:    des.Time(env.T),
			Phase: env.Ph[0],
			Cat:   env.Cat,
			Name:  env.Name,
			Track: env.Track,
			ID:    env.ID,
		}
		if len(env.Args) > 0 {
			args, err := decodeArgs(env.Args)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %w", ErrBadJSONL, lineNo, err)
			}
			ev.Args = args
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: after line %d: %w", ErrBadJSONL, lineNo, err)
	}
	return out, nil
}
