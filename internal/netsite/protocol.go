// Package netsite runs the partial-evaluation algorithms over real TCP
// connections: each fragment is served by a Site (a TCP server owning one
// fragment), and a Coordinator dials all sites, posts queries, gathers the
// partial answers, and assembles them. It is the wire-level counterpart of
// the in-process simulation in internal/cluster — answers are identical,
// but here the bytes actually cross a socket, each site really is visited
// exactly once per query, and the reply sizes can be measured on the wire.
//
// The protocol is length-prefixed binary frames, multiplexed: every frame
// carries a request ID, so many queries can be in flight on one connection
// at once. Sites may answer out of order; the coordinator demultiplexes
// replies back to their queries by ID.
//
//	frame  := length u32 (of the rest) | id u32 | kind u8 | payload
//	request kinds: 'r' qr(s,t), 'b' qbr(s,t,l), 'q' qrr(s,t,Gq),
//	               'B' batch (many mixed-class queries in one payload),
//	               'U' update (a sequenced transactional batch of edge and
//	               node mutations), 'R' rebalance (re-fragment the
//	               deployment at a new epoch), 'S' sync (catch-up
//	               replication: hello / replay / snapshot / fetch),
//	               'C' cancel (abandon the in-flight request whose ID the
//	               frame echoes; no response is owed for either frame),
//	               'T' traced query (additive envelope: trace ID u64 |
//	               parent span ID u64 | inner query kind u8 | inner
//	               payload; only the query kinds 'r','b','q','B' may be
//	               wrapped — a site that predates tracing rejects the
//	               unknown kind with 'E' and the coordinator falls back
//	               to the bare query)
//	response kinds: 'R' answer: epoch u64 | lsn u64 | body (body codec per
//	               request kind; for 'B', one partial per batched query;
//	               for 'U', the changed flag, dirtied fragment IDs, new
//	               node IDs and balance stats), 'E' error,
//	               't' traced answer: epoch u64 | lsn u64 | spans | body —
//	               the site's recorded spans (queue wait, lock wait, local
//	               eval with its reachindex outcome) piggybacked between the
//	               state tag and the normal answer body, so tracing adds
//	               zero extra frames
//
// One round, one final frame per site: every request gets at most one
// response frame, which carries the site's complete partial answer. The
// coordinator feeds each reach answer into an incremental equation system
// as it arrives and, the moment the answers so far prove the query true,
// broadcasts 'C' frames so the remaining sites abandon their evaluation
// (cooperatively: mid-BFS checkpoints, and a cancelled request owes no
// response at all). See round.go.
//
// A response frame echoes the ID of the request it answers, and every
// answer is prefixed with the epoch of the fragmentation that produced it
// plus the LSN of the last update batch it reflects: the coordinator
// rejects (and retries) a query round whose sites answered from different
// (epoch, LSN) states, so a query racing a live rebalance or update never
// combines partial answers across fragmentations or update positions — a
// persistent LSN split marks a replica that missed updates and triggers
// catch-up replication. The byte 'R' names both the rebalance request and
// the answer response; direction disambiguates (coordinators send
// requests, sites send responses).
//
// A batch frame is the wire form of the paper's per-batch visit guarantee:
// one request frame per site carries the whole batch, and one response
// frame per site carries every partial answer, so k queries cost the same
// number of frames as one.
package netsite

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame kinds. kindRebalance shares the byte 'R' with kindAnswer: request
// and response kinds never travel in the same direction, so the site
// reads it as "rebalance" and the coordinator as "answer".
const (
	kindReach     = 'r'
	kindDist      = 'b'
	kindRPQ       = 'q'
	kindBatch     = 'B'
	kindUpdate    = 'U'
	kindRebalance = 'R'
	kindSync      = 'S'
	kindCancel    = 'C'
	kindTraced    = 'T'
	kindAnswer    = 'R'
	kindError     = 'E'
	// kindTracedAnswer mirrors kindAnswer with the site's recorded spans
	// spliced in after the (epoch, lsn) tag: the first answerPrefix bytes
	// stay identical to an 'R' frame so state-tag parsing is uniform.
	kindTracedAnswer = 't'
)

// answerPrefix is the length of the state tag every answer frame carries:
// epoch u64 | lsn u64.
const answerPrefix = 16

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 28

// minFrame is the smallest legal length value: id u32 + kind u8, no payload.
const minFrame = 5

// writeFrame sends one frame and reports the bytes written. The frame is
// assembled into one buffer so a single Write hits the socket: concurrent
// senders serialized by a mutex then interleave whole frames, never bytes.
func writeFrame(w io.Writer, id uint32, kind byte, payload []byte) (int, error) {
	buf := make([]byte, 4+minFrame+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(minFrame+len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], id)
	buf[8] = kind
	copy(buf[9:], payload)
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// readFrame receives one frame and reports the bytes read.
func readFrame(r io.Reader) (id uint32, kind byte, payload []byte, n int, err error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size < minFrame || size > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("netsite: implausible frame size %d", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, 0, err
	}
	return binary.LittleEndian.Uint32(body), body[4], body[5:], 4 + int(size), nil
}
