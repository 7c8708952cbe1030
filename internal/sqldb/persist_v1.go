package sqldb

import (
	"encoding/gob"
	"fmt"
	"io"
)

// fileFormat is the version 1 database image: one gob value holding every
// table. Nothing writes it any more; readImageV1 keeps stores saved by
// earlier builds loadable. The version 2 reader decodes into the same
// tableDTO, so Load builds tables one way.
type fileFormat struct {
	Magic   string
	Version int
	// Images written before WAL support decode with Epoch 0, matching a
	// fresh log.
	Epoch  uint64
	Tables []tableDTO
}

type tableDTO struct {
	Name    string
	Cols    []Column
	PKCols  []string
	FKs     []ForeignKey
	Indexes []indexDTO // definitions only; contents rebuild on load
	Rows    [][]Value
}

type indexDTO struct {
	Name string
	Cols []string
}

func readImageV1(r io.Reader) (epoch uint64, tables []tableDTO, err error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return 0, nil, err
	}
	if ff.Magic != fileMagic {
		return 0, nil, fmt.Errorf("bad magic %q", ff.Magic)
	}
	if ff.Version != 1 {
		return 0, nil, fmt.Errorf("unsupported version %d", ff.Version)
	}
	// gob does not check row widths, and every later row access assumes them.
	for _, td := range ff.Tables {
		for _, row := range td.Rows {
			if len(row) != len(td.Cols) {
				return 0, nil, fmt.Errorf("table %s: row of %d values in %d columns", td.Name, len(row), len(td.Cols))
			}
		}
	}
	return ff.Epoch, ff.Tables, nil
}
