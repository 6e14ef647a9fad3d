package httpfront

// The reflection-driven wire path POST /v1/query used before the one-pass
// codec (codec.go), kept as the reference the codec is tested against:
// writeQueryResult must produce json.Encoder's bytes for a queryResponse,
// and the binary form must decode to what json.Decoder + decodeValues
// make of the JSON form of the same result.

import (
	"encoding/base64"
	"encoding/binary"
	"math"

	"mega/internal/megaerr"
)

// queryResponse is the JSON body of a successful POST /v1/query.
type queryResponse struct {
	Snapshots int      `json:"snapshots"`
	ValuesB64 []string `json:"values_b64"`
	Report    Report   `json:"report"`
	RequestID string   `json:"request_id,omitempty"`
}

// encodeValues packs each snapshot's values as base64 little-endian
// Float64bits — exact for every float64 including ±Inf and NaN.
func encodeValues(vals [][]float64) []string {
	out := make([]string, len(vals))
	for i, snap := range vals {
		buf := make([]byte, 8*len(snap))
		for j, v := range snap {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		out[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return out
}

// decodeValues is encodeValues's inverse; malformed input is an
// ErrInvalidInput error.
func decodeValues(b64 []string) ([][]float64, error) {
	out := make([][]float64, len(b64))
	for i, s := range b64 {
		buf, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values do not decode: %v", i, err)
		}
		if len(buf)%8 != 0 {
			return nil, megaerr.Invalidf("httpfront: snapshot %d values are %d bytes, not a float64 array", i, len(buf))
		}
		snap := make([]float64, len(buf)/8)
		for j := range snap {
			snap[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		out[i] = snap
	}
	return out, nil
}
