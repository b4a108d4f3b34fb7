package petrinet

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEvaluateMatchesSpec runs the closed form and the specification net
// in lockstep on any thresholds thmin < thmax, any machine of 1 to 64
// cores, and a byte string decoded into steps:
//
//   - a byte below 0x40 sets nalloc in range: 1 + b mod ntotal;
//   - 0x40 and 0x41 read math.MinInt and math.MaxInt;
//   - any other byte reads thmin (even) or thmax (odd) plus the signed
//     16-bit offset in the next two bytes, so readings fall below zero
//     and far past thmax.
func FuzzEvaluateMatchesSpec(f *testing.F) {
	f.Add(int16(10), uint16(59), uint8(15), []byte{0x80, 0, 0, 0x81, 60, 0, 0x05, 0x80, 0xff, 0xff})
	f.Add(int16(100), uint16(299), uint8(0), []byte{0x41, 0x40, 0x83, 0x10, 0x27})
	f.Add(int16(-5), uint16(0), uint8(63), []byte{0x3f, 0x81, 0, 0, 0x80, 1, 0, 0x00, 0x41})
	f.Fuzz(func(t *testing.T, thMin int16, gap uint16, machine uint8, data []byte) {
		th0, th1, nTotal := int(thMin), int(thMin)+1+int(gap), 1+int(machine)%64
		p := newNetPair(t, th0, th1, nTotal)
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch {
			case op < 0x40:
				p.setNAlloc(1 + int(op)%nTotal)
			case op == 0x40:
				p.evaluate(math.MinInt)
			case op == 0x41:
				p.evaluate(math.MaxInt)
			case len(data) >= 2:
				base := th0
				if op&1 == 1 {
					base = th1
				}
				p.evaluate(base + int(int16(binary.LittleEndian.Uint16(data))))
				data = data[2:]
			default:
				return
			}
		}
	})
}
