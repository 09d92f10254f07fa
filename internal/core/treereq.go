package core

import (
	"encoding/binary"
	"fmt"

	"flexio/internal/datatype"
)

// The request exchange normally ships the flattened filetype (O(D) pairs).
// The paper's §5.3 also discusses "storing the datatypes in an even higher
// level description": the constructor tree itself. For regular nested
// types the tree is smaller still, at the cost of the aggregator expanding
// (flattening) it on arrival. Options.Exchange = ExchangeTree selects this
// representation.

// encodeTreeRequest wraps a constructor tree with the tiling parameters of
// the access (disp, count, limit).
func encodeTreeRequest(t datatype.Type, disp, count, limit int64) []byte {
	tree := datatype.Tree(t).Encode()
	buf := make([]byte, 24+len(tree))
	binary.LittleEndian.PutUint64(buf[0:], uint64(disp))
	binary.LittleEndian.PutUint64(buf[8:], uint64(count))
	binary.LittleEndian.PutUint64(buf[16:], uint64(limit))
	copy(buf[24:], tree)
	return buf
}

// decodeTreeRequest expands a tree request into the Flat form the engine
// consumes, returning the expansion work (pairs) the aggregator must be
// charged for.
func decodeTreeRequest(buf []byte) (datatype.Flat, int64, error) {
	if len(buf) < 24 {
		return datatype.Flat{}, 0, fmt.Errorf("core: tree request too short (%d bytes)", len(buf))
	}
	disp := int64(binary.LittleEndian.Uint64(buf[0:]))
	count := int64(binary.LittleEndian.Uint64(buf[8:]))
	limit := int64(binary.LittleEndian.Uint64(buf[16:]))
	node, err := datatype.DecodeNode(buf[24:])
	if err != nil {
		return datatype.Flat{}, 0, err
	}
	t, err := node.Build()
	if err != nil {
		return datatype.Flat{}, 0, err
	}
	fl := datatype.FlatOf(t, disp, count)
	fl.Limit = limit
	// Expanding the tree costs one pass over the flattened pairs.
	return fl, t.NumSegs(), nil
}
