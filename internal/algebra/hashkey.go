package algebra

import (
	"encoding/binary"
	"math"
)

// Typed hash keys. The map runtime built grouping and duplicate-elimination
// keys by concatenating human-readable value renderings with a separator,
// which is ambiguous: a string value containing the separator and a type
// tag could make two distinct tuples encode identically (see
// TestGroupingKeyCollision). The columnar operators instead use an unambiguous
// binary encoding: every value is tagged with its kind, numeric payloads
// are fixed-width, and string payloads are length-prefixed. No two
// distinct value sequences share an encoding.
//
// Equality semantics follow the runtime's comparison rules for keys:
// values are equal iff they agree in kind and payload. (Grouping equality
// additionally makes NULL equal to NULL, which the encoding realizes by
// giving NULL its own tag; join code never encodes NULL keys because
// strict equality makes them match nothing.)

const (
	keyNull   = 0x00
	keyInt    = 0x01
	keyFloat  = 0x02
	keyString = 0x03
)

// appendKeyValue appends the unambiguous binary encoding of v to b.
func appendKeyValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, keyNull)
	case KindInt:
		b = append(b, keyInt)
		return binary.BigEndian.AppendUint64(b, uint64(v.I))
	case KindFloat:
		b = append(b, keyFloat)
		f := v.F
		if math.IsNaN(f) {
			// Canonicalize NaN payloads: the reference encoding renders
			// every NaN as the same "NaN" token, so grouping treats all
			// NaNs as one group.
			f = math.NaN()
		}
		return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	case KindString:
		b = append(b, keyString)
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		return append(b, v.S...)
	}
	panic("algebra: unknown value kind in key encoding")
}
