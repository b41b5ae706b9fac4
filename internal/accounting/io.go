package accounting

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The export format is JSON-lines: every line is {"kind": ..., ...record}.
// It round-trips the entire central database so traces can be generated
// once (cmd/wlgen) and analyzed repeatedly (cmd/modreport).

type taggedLine struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Export writes the full database as JSON lines.
func (c *Central) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	write := func(kind string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		line, err := json.Marshal(taggedLine{Kind: kind, Data: data})
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	jobs := c.Jobs()
	for i := range jobs {
		if err := write("job", &jobs[i]); err != nil {
			return err
		}
	}
	for i := range c.transfers {
		if err := write("transfer", &c.transfers[i]); err != nil {
			return err
		}
	}
	for i := range c.gatewayAttrs {
		if err := write("gateway_attr", &c.gatewayAttrs[i]); err != nil {
			return err
		}
	}
	for i := range c.storage {
		if err := write("storage", &c.storage[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// importBlock is the number of job records per block Import decodes into
// (about 94 KiB).
const importBlock = 256

// Import reads a JSON-lines export into an empty central database. It
// refuses to import into a database that already holds records, since the
// sequence-tracking state would be inconsistent.
func (c *Central) Import(r io.Reader) error {
	if len(c.jobIndex)+len(c.transfers)+len(c.gatewayAttrs)+len(c.storage) > 0 {
		return fmt.Errorf("accounting: import into non-empty database")
	}
	// Job records go into blocks that Central keeps as segments, so none
	// is copied to grow before the seal. The last block is kept on every
	// return, so the index never names a record Central does not hold.
	var block []JobRecord
	defer func() { c.borrow(block) }()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var tl taggedLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return fmt.Errorf("accounting: import line %d: %w", lineNo, err)
		}
		switch tl.Kind {
		case "job":
			var rec JobRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("accounting: import line %d: %w", lineNo, err)
			}
			if !c.index(rec.JobID) {
				continue
			}
			if len(block) == cap(block) {
				c.borrow(block)
				block = make([]JobRecord, 0, importBlock)
			}
			block = append(block, rec)
		case "transfer":
			var rec TransferRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("accounting: import line %d: %w", lineNo, err)
			}
			c.transfers = append(c.transfers, rec)
		case "gateway_attr":
			var rec GatewayAttrRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("accounting: import line %d: %w", lineNo, err)
			}
			c.gatewayAttrs = append(c.gatewayAttrs, rec)
		case "storage":
			var rec StorageRecord
			if err := json.Unmarshal(tl.Data, &rec); err != nil {
				return fmt.Errorf("accounting: import line %d: %w", lineNo, err)
			}
			c.storage = append(c.storage, rec)
		default:
			return fmt.Errorf("accounting: import line %d: unknown kind %q", lineNo, tl.Kind)
		}
	}
	return sc.Err()
}
