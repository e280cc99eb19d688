package netsite

import (
	"encoding/binary"
	"errors"

	"distreach/internal/obs"
)

// Traced-query envelope ('T' request frames) and traced-answer framing
// ('t' response frames). The envelope is additive: a coordinator that
// wants a trace wraps the ordinary query payload; everything about the
// inner query — codec, cancellation, (epoch, LSN) strict rounds — is
// untouched. Sites that don't know 'T' answer 'E'
// for the unknown kind, and the round degrades to untraced.

// tracedHeader is trace ID u64 | parent span ID u64 | inner kind u8.
const tracedHeader = 17

var errTracedPayload = errors.New("netsite: malformed traced envelope")

// tracedKind reports whether k is a query kind eligible for wrapping.
// Updates, rebalances and sync traffic stay untraced: their frames are
// not rounds the paper's guarantees speak about, and keeping the
// envelope query-only means the auditor can treat every 'T' as a round.
func tracedKind(k byte) bool {
	return k == kindReach || k == kindDist || k == kindRPQ || k == kindBatch
}

// encodeTraced wraps a query payload in a trace envelope.
func encodeTraced(traceID, parentSpan uint64, inner byte, payload []byte) []byte {
	p := make([]byte, 0, tracedHeader+len(payload))
	p = binary.BigEndian.AppendUint64(p, traceID)
	p = binary.BigEndian.AppendUint64(p, parentSpan)
	p = append(p, inner)
	return append(p, payload...)
}

// decodeTraced unwraps a 'T' payload. Nested envelopes are rejected —
// one trace context per frame.
func decodeTraced(p []byte) (traceID, parentSpan uint64, inner byte, payload []byte, err error) {
	if len(p) < tracedHeader {
		return 0, 0, 0, nil, errTracedPayload
	}
	inner = p[16]
	if !tracedKind(inner) {
		return 0, 0, 0, nil, errTracedPayload
	}
	return binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:]), inner, p[tracedHeader:], nil
}

// encodeTracedAnswer builds a 't' payload: the (epoch, lsn)-tagged body
// tag stays in front (first answerPrefix bytes identical to an 'R'
// frame), the span section follows, then the answer body.
func encodeTracedAnswer(tag []byte, spans []byte, body []byte) []byte {
	p := make([]byte, 0, len(tag)+len(spans)+len(body))
	p = append(p, tag...)
	p = append(p, spans...)
	return append(p, body...)
}

// decodeTracedAnswer splits a 't' payload (after the answerPrefix tag)
// into the site's spans and the ordinary answer body.
func decodeTracedAnswer(afterTag []byte) (spans []obs.WireSpan, body []byte, err error) {
	spans, body, err = obs.DecodeWireSpans(afterTag)
	if err != nil {
		return nil, nil, errTracedPayload
	}
	return spans, body, nil
}
