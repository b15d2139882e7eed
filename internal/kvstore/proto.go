package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"time"
)

// Wire protocol: length-prefixed little-endian binary frames, designed
// for pipelining — a client may write any number of requests before
// reading responses; the server answers strictly in request order.
//
//	request  frame: u32 payloadLen | u8 op | op-specific fields
//	response frame: u32 payloadLen | u8 status | op-specific fields
//
// Ops and their request/response payloads (after the op/status byte):
//
//	GET   key u64                → OK: val u64        | NotFound
//	PUT   key u64, val u64       → OK: inserted u8
//	DEL   key u64                → OK | NotFound
//	SCAN  from u64, limit u32    → OK: n u32, n×(k u64, v u64)
//	STATS                        → OK: JSON bytes (kvstore.Stats)
//	DRAIN                        → OK: JSON bytes (kvstore.DrainReport);
//	                               quiescent use only (no other traffic)
//
// Err responses carry a UTF-8 message.
//
// Execution budgets: any data-op request may carry a budget by OR-ing
// OpFlagBudget into the op byte and inserting the remaining budget, in
// microseconds, directly after it:
//
//	budgeted frame: u32 payloadLen | u8 op|OpFlagBudget | u32 budgetUs | fields
//
// The server converts the budget to a local deadline at parse time and
// re-checks it at dequeue (after any admission-queue wait): an expired
// op is answered StatusDeadlineExceeded *instead of being executed*, and
// an op refused by admission control is answered StatusOverloaded.
// Either status is a contract that the op had no effect. The flag is
// self-describing per frame, so there is one wire version and no
// handshake: every peer parses a flagged frame and a plain one alike.
const (
	OpGet   = uint8(1)
	OpPut   = uint8(2)
	OpDel   = uint8(3)
	OpScan  = uint8(4)
	OpStats = uint8(5)
	OpDrain = uint8(6)

	// OpFlagBudget marks a request op byte as budget-prefixed. High bit
	// so the flagged range can never collide with a real op.
	OpFlagBudget = uint8(0x80)

	StatusOK               = uint8(0)
	StatusNotFound         = uint8(1)
	StatusErr              = uint8(2)
	StatusDeadlineExceeded = uint8(3)
	StatusOverloaded       = uint8(4)
)

// maxBudget caps the on-wire budget; anything longer is indistinguishable
// from "no deadline" in practice and must still fit the u32 µs field.
const maxBudget = time.Hour

// Cluster admin ops, served only by the kvproxy (internal/cluster). A
// plain kvserver answers them with an Err frame, so pointing an admin
// client at the wrong tier fails loudly instead of silently. Their
// payloads are UTF-8 backend addresses after the op byte; responses are
// JSON after the status byte.
//
//	CLUSTER_INFO                 → OK: JSON (cluster.Info)
//	CLUSTER_ADD    addr          → OK: JSON (cluster.RebalanceReport)
//	CLUSTER_DRAIN  addr          → OK: JSON (cluster.RebalanceReport);
//	                               hands the node's keys off, then drops
//	                               it from the ring (the process stays up
//	                               for its own drain/leak check)
//	CLUSTER_REMOVE addr          → OK: JSON (cluster.RebalanceReport);
//	                               same retirement protocol, but works on
//	                               a node that is already gone — the
//	                               handoff re-replicates its keys from
//	                               the surviving replicas instead
const (
	OpClusterInfo   = uint8(16)
	OpClusterAdd    = uint8(17)
	OpClusterDrain  = uint8(18)
	OpClusterRemove = uint8(19)
)

// MaxFrame bounds a frame payload; a SCAN of MaxScanLimit pairs is the
// largest legitimate frame.
const (
	MaxScanLimit = 1024
	MaxFrame     = 16 + MaxScanLimit*16
)

// ReadFrame reads one frame payload through br's buffer into buf
// (growing it as needed) and returns the payload slice. It reads with
// Peek/Discard, so an *aborted* read — a poisoned deadline firing
// mid-wait — consumes nothing: the frame stays buffered (or unread) and
// the response stream keeps its alignment, leaving the connection
// reusable after a cancellation. br's buffer must hold a full frame
// (4+MaxFrame bytes).
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	full, err := peekFrame(br)
	if err != nil {
		return nil, err
	}
	buf = append(buf[:0], full[4:]...)
	_, err = br.Discard(len(full))
	return buf, err
}

// peekFrame returns the next whole frame in br, length prefix included,
// without consuming it.
func peekFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("kvstore: bad frame length %d", n)
	}
	return br.Peek(4 + int(n))
}

// FrameBuffered reports whether br already holds one whole frame, so
// the next frame read from it cannot block on the network. A malformed
// length reads as buffered: the read then fails without waiting.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	sz := binary.LittleEndian.Uint32(hdr)
	return sz == 0 || sz > MaxFrame || n >= 4+int(sz)
}

// AppendBudget appends a budget-prefixed op header (op|OpFlagBudget and
// the budget in microseconds, clamped to [1µs, maxBudget]) to dst. The
// caller appends the op's usual fields after it.
func AppendBudget(dst []byte, op uint8, budget time.Duration) []byte {
	return appendU32(append(dst, op|OpFlagBudget), budgetUs(budget))
}

// budgetUs is the on-wire budget field: whole microseconds, clamped to
// [1, maxBudget] so a live budget never reads as the invalid 0.
func budgetUs(budget time.Duration) uint32 {
	us := min(budget, maxBudget).Microseconds()
	return uint32(max(us, 1))
}

// SplitBudget strips the optional budget prefix from a request payload.
// The plain payload is reconstructed in place — payload[4] is rewritten
// to the bare op byte and the returned slice starts there — so the
// caller must own the buffer. Returns the plain payload, the budget
// (0 when absent), and false for a malformed budgeted frame.
func SplitBudget(payload []byte) ([]byte, time.Duration, bool) {
	if len(payload) == 0 || payload[0]&OpFlagBudget == 0 {
		return payload, 0, true
	}
	us, ok := getU32(payload, 1)
	if !ok || us == 0 {
		return payload, 0, false
	}
	payload[4] = payload[0] &^ OpFlagBudget
	return payload[4:], time.Duration(us) * time.Microsecond, true
}

// RewriteFrameBudget overwrites the budget field of a budget-flagged
// frame (length prefix included) in place — the zero-copy counterpart
// of AppendBudget for a proxy that forwards one pooled frame to several
// backends, each with a different remaining budget. Returns false if
// the frame is not budget-flagged or too short to carry the field.
func RewriteFrameBudget(frame []byte, budget time.Duration) bool {
	if len(frame) < 9 || frame[4]&OpFlagBudget == 0 {
		return false
	}
	binary.LittleEndian.PutUint32(frame[5:9], budgetUs(budget))
	return true
}

// appendFrame appends a length-prefixed frame holding payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// AppendFrame exposes the framing to the cluster proxy, which
// terminates the protocol on its client side and forwards request
// payloads to backends verbatim.
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// Field accessors for proxies that route on the key without decoding
// the full request.
func PayloadU64(b []byte, off int) (uint64, bool) { return getU64(b, off) }
func PayloadU32(b []byte, off int) (uint32, bool) { return getU32(b, off) }
func AppendU64(dst []byte, v uint64) []byte       { return appendU64(dst, v) }
func AppendU32(dst []byte, v uint32) []byte       { return appendU32(dst, v) }

// BeginFrame reserves the length prefix in dst and returns the offset
// where the payload starts; EndFrame back-fills the prefix once the
// payload is complete. Between the two, a frame is encoded directly into
// its destination buffer — no intermediate payload slice.
func BeginFrame(dst []byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0)
	return dst, len(dst)
}

func EndFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(dst)-start))
	return dst
}

// StatusFrame encodes a bare single-status response into dst.
func StatusFrame(dst []byte, status uint8) []byte {
	out, fs := BeginFrame(dst)
	return EndFrame(append(out, status), fs)
}

// ErrFrame completes an in-progress frame as an error response. The
// payload hole is still empty on every error path (errors are detected
// before any payload bytes are appended).
func ErrFrame(out []byte, start int, msg string) []byte {
	out = append(out, StatusErr)
	out = append(out, msg...)
	return EndFrame(out, start)
}

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

func getU64(b []byte, off int) (uint64, bool) {
	if off+8 > len(b) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[off:]), true
}

func getU32(b []byte, off int) (uint32, bool) {
	if off+4 > len(b) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[off:]), true
}
