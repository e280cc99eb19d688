package netsite

import (
	"bytes"
	"testing"

	"distreach/internal/automaton"
	"distreach/internal/fragment"
	"distreach/internal/gen"
	"distreach/internal/graph"
	"distreach/internal/oplog"
)

// FuzzDecodeFrame throws arbitrary byte streams at the frame decoder: it
// must either error or produce a frame that re-encodes to exactly the
// bytes it consumed. Seeds come from the edge cases the handwritten tests
// pin down.
func FuzzDecodeFrame(f *testing.F) {
	// Valid frames of each request kind, plus the codified edge cases.
	for _, payload := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 256)} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, 42, kindReach, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(rawHeader(0))                                           // zero length
	f.Add(append(rawHeader(3), 1, 2, 3))                          // shorter than id+kind
	f.Add(rawHeader(maxFrame + 1))                                // oversized length
	f.Add(append(rawHeader(100), bytes.Repeat([]byte{7}, 10)...)) // truncated payload
	f.Add([]byte{1, 0})                                           // truncated header
	// Update and rebalance frames, request and reply.
	var upd bytes.Buffer
	ureq, err := encodeUpdateRequest(9, 77, []Op{{Kind: OpInsertEdge, U: 3, V: 4}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 7, kindUpdate, ureq); err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 7, kindAnswer, encodeUpdateReply(true, []int{0, 2}, nil, fragment.BalanceStats{})); err != nil {
		f.Fatal(err)
	}
	rreq, err := encodeRebalanceRequest(3, 4, 11, "edgecut")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := writeFrame(&upd, 8, kindRebalance, rreq); err != nil {
		f.Fatal(err)
	}
	f.Add(upd.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, payload, n, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejecting is always legal; not panicking is the property
		}
		if n < 4+minFrame || n > len(data) {
			t.Fatalf("readFrame consumed %d of %d bytes", n, len(data))
		}
		var buf bytes.Buffer
		wn, err := writeFrame(&buf, id, kind, payload)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame failed: %v", err)
		}
		if wn != n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame round trip drifted: read %d bytes, wrote %d", n, wn)
		}
	})
}

// FuzzBatchPayload throws arbitrary bytes at both batch payload decoders.
// Whatever decodes must re-encode and decode back to the same thing; the
// rest must be rejected with an error, never a panic or an implausible
// allocation. The automaton codec nested inside RPQ batch entries gets
// fuzzed along the way.
func FuzzBatchPayload(f *testing.F) {
	rng := gen.NewRNG(7)
	a := automaton.Random(rng, 3, 5, []string{"A", "B"})
	seed, err := encodeBatchRequest([]BatchQuery{
		{Class: ClassReach, S: 1, T: 2},
		{Class: ClassDist, S: 3, T: 4, L: 6},
		{Class: ClassRPQ, S: 5, T: 6, A: a},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := encodeBatchRequest(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add(encodeBatchReply([][]byte{{9, 8}}, []uint32{1, 0, 1}, [][]byte{{1, 2, 3}, nil, {0xFF}}))
	f.Add([]byte{batchVersion, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile count
	f.Add([]byte{batchVersion, 0xFF, 0, 0, 0, 0})          // unknown flags
	f.Add(seed[:len(seed)-3])                              // truncated query

	f.Fuzz(func(t *testing.T, data []byte) {
		if qs, err := decodeBatchRequest(data); err == nil {
			re, err := encodeBatchRequest(qs)
			if err != nil {
				t.Fatalf("re-encode of a decoded batch failed: %v", err)
			}
			qs2, err := decodeBatchRequest(re)
			if err != nil {
				t.Fatalf("decode of a re-encoded batch failed: %v", err)
			}
			if len(qs2) != len(qs) {
				t.Fatalf("batch round trip drifted: %d then %d queries", len(qs), len(qs2))
			}
			for i := range qs {
				if qs2[i].Class != qs[i].Class || qs2[i].S != qs[i].S ||
					qs2[i].T != qs[i].T || qs2[i].L != qs[i].L {
					t.Fatalf("query %d drifted: %+v -> %+v", i, qs[i], qs2[i])
				}
			}
		}
		if shared, refs, parts, err := decodeBatchReply(data); err == nil {
			shared2, refs2, parts2, err := decodeBatchReply(encodeBatchReply(shared, refs, parts))
			if err != nil {
				t.Fatalf("reply re-encode round trip failed: %v", err)
			}
			if len(shared2) != len(shared) || len(parts2) != len(parts) {
				t.Fatalf("reply round trip drifted: %d/%d then %d/%d sections/parts",
					len(shared), len(parts), len(shared2), len(parts2))
			}
			for i := range shared {
				if !bytes.Equal(shared[i], shared2[i]) {
					t.Fatalf("reply section %d drifted", i)
				}
			}
			for i := range parts {
				if refs[i] != refs2[i] || !bytes.Equal(parts[i], parts2[i]) {
					t.Fatalf("reply part %d drifted", i)
				}
			}
		}
	})
}

// FuzzAnytimePayload throws arbitrary bytes at the query-round request
// codecs the one-frame protocol pins down: a reach request is exactly 8
// bytes (s, t) — a 9th byte, the retired stream flag, is rejected — and a
// batch request's flags byte must be 0. Whatever decodes must re-encode
// to the same bytes; the rest must error, never panic.
func FuzzAnytimePayload(f *testing.F) {
	f.Add(encodeReachRequest(1, 2))
	f.Add(append(encodeReachRequest(3, 4), 1))    // 9 bytes: old stream flag
	f.Add(append(encodeReachRequest(3, 4), 0xFF)) // 9 bytes: unknown flags
	f.Add(encodeReachRequest(5, 6)[:7])           // truncated
	batch, err := encodeBatchRequest([]BatchQuery{{Class: ClassReach, S: 1, T: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	streamed := append([]byte{}, batch...)
	streamed[1] = 1 // the retired batch stream flag
	f.Add(streamed)
	streamed = append([]byte{}, batch...)
	streamed[1] = 0x80
	f.Add(streamed)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, tt, err := decodeReachRequest(data)
		switch {
		case len(data) != 8 && err == nil:
			t.Fatalf("accepted a %d-byte reach request", len(data))
		case len(data) == 8 && err != nil:
			t.Fatalf("rejected an 8-byte reach request: %v", err)
		case err == nil && !bytes.Equal(encodeReachRequest(s, tt), data):
			t.Fatalf("reach request round trip drifted: (%d,%d)", s, tt)
		}
		if len(data) >= 2 && data[0] == batchVersion && data[1] != 0 {
			if _, err := decodeBatchRequest(data); err == nil {
				t.Fatalf("accepted batch flags %#x", data[1])
			}
		}
	})
}

// FuzzUpdatePayload throws arbitrary bytes at the multi-op update frame
// codecs: whatever decodes must survive a re-encode round trip; the rest
// must be rejected with an error, never a panic or an implausible
// allocation.
func FuzzUpdatePayload(f *testing.F) {
	mixed, err := encodeUpdateRequest(17, 23, []Op{
		{Kind: OpInsertEdge, U: 1, V: 2},
		{Kind: OpDeleteEdge, U: 0xFFFFFF, V: 0},
		{Kind: OpInsertNode, Label: "A", Frag: -1},
		{Kind: OpInsertNode, Label: "long-label", Frag: 3},
		{Kind: OpDeleteNode, U: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed)
	single, err := encodeUpdateRequest(0, 0, []Op{{Kind: OpDeleteEdge, U: 5, V: 6}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	bs := fragment.BalanceStats{Fragments: 3, MaxSize: 40, MinSize: 10, TotalSize: 90, Vf: 12, CrossEdges: 30}
	f.Add(encodeUpdateReply(true, []int{0, 1, 5}, []graph.NodeID{9}, bs))
	f.Add(encodeUpdateReply(false, nil, nil, fragment.BalanceStats{}))
	f.Add([]byte{updateVersion, 0xFF, 0xFF, 0xFF, 0x7F})                        // hostile op count
	f.Add([]byte{updateVersion, 1, 0xFF, 0xFF, 0xFF, 0x7F})                     // hostile dirty count
	f.Add(append(mixed[:len(mixed)-2], 0xFF))                                   // truncated op
	f.Add([]byte{'i', 1, 0, 0, 0, 2, 0, 0, 0})                                  // legacy v1 single-edge frame
	f.Add([]byte{2, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'i'})                   // legacy v2 frame
	f.Add([]byte{updateVersion, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'n', 0xFF}) // truncated node op
	f.Fuzz(func(t *testing.T, data []byte) {
		if lsn, nonce, ops, err := decodeUpdateRequest(data); err == nil {
			re, err := encodeUpdateRequest(lsn, nonce, ops)
			if err != nil {
				t.Fatalf("re-encode of a decoded update failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("update request round trip drifted")
			}
		}
		if changed, dirty, ids, bs, err := decodeUpdateReply(data); err == nil {
			if !bytes.Equal(encodeUpdateReply(changed, dirty, ids, bs), data) {
				t.Fatalf("update reply round trip drifted")
			}
		}
	})
}

// FuzzSyncPayload throws arbitrary bytes at the catch-up replication
// ('S') frame codecs: the replay record list must survive a re-encode
// round trip, and the snapshot decoder — which nests the graph and
// assignment text codecs plus a fingerprint check — must reject hostile
// input with an error, never a panic or an implausible allocation.
func FuzzSyncPayload(f *testing.F) {
	rep, err := encodeSyncReplay([]oplog.Record{
		{LSN: 5, Ops: []Op{{Kind: OpInsertEdge, U: 1, V: 2}}},
		{LSN: 6, Ops: []Op{{Kind: OpInsertNode, Label: "A", Frag: -1}, {Kind: OpDeleteNode, U: 3}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rep)
	empty, err := encodeSyncReplay(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{syncHello})
	f.Add([]byte{syncFetch})
	f.Add([]byte{syncReplay, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile record count
	f.Add(rep[:len(rep)-3])                           // truncated record
	// A real snapshot seed, plus mutilations of it.
	g := gen.Uniform(gen.Config{Nodes: 12, Edges: 30, Labels: []string{"A", "B"}, Seed: 11})
	fr, err := fragment.Random(g, 2, 11)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := oplog.TakeSnapshot(fragment.NewReplicaAt(fr, 3, 9))
	if err != nil {
		f.Fatal(err)
	}
	sb, err := oplog.EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{syncSnapshot}, sb...))
	f.Add(append([]byte{syncSnapshot}, sb[:len(sb)/2]...))
	mut := append([]byte{syncSnapshot}, sb...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] {
		case syncReplay:
			if recs, err := decodeSyncReplay(data[1:]); err == nil {
				re, err := encodeSyncReplay(recs)
				if err != nil {
					t.Fatalf("re-encode of a decoded replay failed: %v", err)
				}
				if !bytes.Equal(re, data) {
					t.Fatalf("replay round trip drifted")
				}
			}
		case syncSnapshot:
			if snap, err := oplog.DecodeSnapshot(data[1:]); err == nil {
				// Whatever decodes (and passes the fingerprint check) must
				// re-encode to a decodable snapshot with the same identity.
				re, err := oplog.EncodeSnapshot(snap)
				if err != nil {
					t.Fatalf("re-encode of a decoded snapshot failed: %v", err)
				}
				snap2, err := oplog.DecodeSnapshot(re)
				if err != nil {
					t.Fatalf("decode of a re-encoded snapshot failed: %v", err)
				}
				if snap2.LSN != snap.LSN || snap2.Epoch != snap.Epoch || snap2.Fingerprint != snap.Fingerprint {
					t.Fatalf("snapshot identity drifted: %+v vs %+v", snap, snap2)
				}
			}
		}
	})
}

// FuzzRebalancePayload throws arbitrary bytes at the rebalance frame
// codecs with the same round-trip-or-reject property.
func FuzzRebalancePayload(f *testing.F) {
	for _, name := range []string{"edgecut", "random", "x"} {
		req, err := encodeRebalanceRequest(5, 4, 99, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req)
	}
	bs := fragment.BalanceStats{Fragments: 4, MaxSize: 25, MinSize: 20, TotalSize: 88, Vf: 9, CrossEdges: 14}
	f.Add(encodeRebalanceReply(6, true, 0xDEADBEEF, bs))
	f.Add(encodeRebalanceReply(0, false, 0, fragment.BalanceStats{}))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0}) // truncated request
	f.Add(bytes.Repeat([]byte{0xFF}, 22))             // hostile name length
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, k, seed, name, err := decodeRebalanceRequest(data); err == nil {
			re, err := encodeRebalanceRequest(epoch, k, seed, name)
			if err != nil {
				t.Fatalf("re-encode of a decoded rebalance request failed: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("rebalance request round trip drifted")
			}
		}
		if epoch, applied, fp, bs, err := decodeRebalanceReply(data); err == nil {
			if !bytes.Equal(encodeRebalanceReply(epoch, applied, fp, bs), data) {
				t.Fatalf("rebalance reply round trip drifted")
			}
		}
	})
}
