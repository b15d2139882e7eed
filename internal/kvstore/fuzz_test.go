package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// The seed corpora live in testdata/fuzz/<target>: the malformed frames
// the chaos torture subject puts on the wire (a PUT truncated after its
// op byte, pipelines aborted mid-frame) plus budget-flagged variants cut
// inside the budget field. `make fuzz-smoke` runs each target for 10s.

// wantBudget is the budget SplitBudget must recover from a frame built
// with budget d: whole microseconds, clamped to [1µs, maxBudget].
func wantBudget(d time.Duration) time.Duration {
	us := min(d, maxBudget).Microseconds()
	return time.Duration(max(us, 1)) * time.Microsecond
}

// FuzzSplitBudget checks the request-side budget codec. On arbitrary
// bytes SplitBudget never panics, passes an unflagged payload through
// untouched, and accepts a flagged one only with a whole nonzero budget
// field (so anything shorter than 5 bytes is rejected); RewriteFrameBudget
// touches only flagged frames long enough to carry the field. A frame
// built by AppendBudget round-trips its op, fields and clamped budget,
// before and after an in-place rewrite.
func FuzzSplitBudget(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, op byte, budgetNs, rewriteNs int64) {
		req, budget, ok := SplitBudget(bytes.Clone(payload))
		flagged := len(payload) > 0 && payload[0]&OpFlagBudget != 0
		switch {
		case !flagged:
			if !ok || budget != 0 || !bytes.Equal(req, payload) {
				t.Fatalf("unflagged %x: got %x, %v, %v", payload, req, budget, ok)
			}
		case len(payload) < 5:
			if ok {
				t.Fatalf("flagged %d-byte payload %x accepted", len(payload), payload)
			}
		case ok:
			if budget <= 0 || req[0] != payload[0]&^OpFlagBudget || !bytes.Equal(req[1:], payload[5:]) {
				t.Fatalf("flagged %x: got %x, %v", payload, req, budget)
			}
		case binary.LittleEndian.Uint32(payload[1:]) != 0:
			t.Fatalf("flagged %x with a nonzero budget rejected", payload)
		}
		frame := bytes.Clone(payload)
		wantOK := len(frame) >= 9 && frame[4]&OpFlagBudget != 0
		if got := RewriteFrameBudget(frame, time.Duration(rewriteNs)); got != wantOK {
			t.Fatalf("RewriteFrameBudget(%x) = %v, want %v", payload, got, wantOK)
		}

		frame = AppendBudget(make([]byte, 4), op, time.Duration(budgetNs))
		frame = append(frame, payload...)
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
		check := func(frame []byte, want time.Duration) {
			t.Helper()
			req, budget, ok := SplitBudget(bytes.Clone(frame[4:]))
			if !ok || budget != want || req[0] != op&^OpFlagBudget || !bytes.Equal(req[1:], payload) {
				t.Fatalf("round trip of op %#x: got %x, %v, %v; want budget %v", op, req, budget, ok, want)
			}
		}
		check(frame, wantBudget(time.Duration(budgetNs)))
		if !RewriteFrameBudget(frame, time.Duration(rewriteNs)) {
			t.Fatal("RewriteFrameBudget refused an AppendBudget frame")
		}
		check(frame, wantBudget(time.Duration(rewriteNs)))
	})
}

// FuzzServeRequest feeds arbitrary request payloads through the server's
// whole per-request path (serveOne: SplitBudget, the deadline and
// admission gates, execution) on a small store. Every payload the frame
// reader can deliver must yield exactly one well-formed response frame
// of at most MaxFrame+4 bytes with a known status byte.
func FuzzServeRequest(f *testing.F) {
	st, err := New(Config{Scheme: "orcgc", Shards: 2, Buckets: 64, MaxThreads: 4})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(st, WithMaxInflight(2))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > MaxFrame {
			return // ReadFrame rejects these lengths before any parsing
		}
		out := srv.serveOne(1, nil, bytes.Clone(payload))
		if len(out) < 5 || len(out) > MaxFrame+4 {
			t.Fatalf("request %x: %d-byte response frame", payload, len(out))
		}
		if n := binary.LittleEndian.Uint32(out); int(n) != len(out)-4 {
			t.Fatalf("request %x: length prefix %d for a %d-byte payload", payload, n, len(out)-4)
		}
		if out[4] > StatusOverloaded {
			t.Fatalf("request %x: unknown status %d", payload, out[4])
		}
	})
}

// FuzzServerConn feeds an arbitrary byte stream into one connection's
// handle loop — the request side read through iotest.HalfReader so
// frames arrive split across reads — while a goroutine drains the
// responses over net.Pipe. handle must return soon after the input
// ends, every response must be a well-formed frame with a known status,
// and there must be exactly one response per whole frame at the head of
// the input (the loop stops at the first bad length or truncation).
// Seeded with the FuzzServeRequest corpus, each payload framed, plus
// all of them as one pipelined stream.
func FuzzServerConn(f *testing.F) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzServeRequest/*")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no FuzzServeRequest corpus: %v", err)
	}
	var stream []byte
	for _, path := range paths {
		frame := appendFrame(nil, corpusBytes(f, path))
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	st, err := New(Config{Scheme: "orcgc", Shards: 2, Buckets: 64, MaxThreads: 4})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(st, WithMaxInflight(2))
	f.Fuzz(func(t *testing.T, in []byte) {
		sc, cc := net.Pipe()
		defer cc.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			serveConn(srv, inputConn{sc, iotest.HalfReader(bytes.NewReader(in))})
		}()
		cc.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReaderSize(cc, 64<<10)
		responses := 0
		for {
			resp, err := ReadFrame(br, nil)
			if err == io.EOF && br.Buffered() == 0 {
				break
			}
			if err != nil {
				t.Fatalf("response %d: %v", responses, err)
			}
			if resp[0] > StatusOverloaded {
				t.Fatalf("response %d: unknown status %d", responses, resp[0])
			}
			responses++
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handle still running 10s after its input ended")
		}
		if whole := wholeFrames(in); responses != whole {
			t.Fatalf("%d responses to %d whole request frames", responses, whole)
		}
	})
}

// inputConn is a server-side connection whose requests come from in:
// reads end in EOF once in is exhausted while writes still go out.
type inputConn struct {
	net.Conn
	in io.Reader
}

func (c inputConn) Read(b []byte) (int, error) { return c.in.Read(b) }

// wholeFrames counts the complete frames at the head of b, stopping at
// the first bad length prefix or truncated frame.
func wholeFrames(b []byte) int {
	n := 0
	for len(b) >= 4 {
		sz := int(binary.LittleEndian.Uint32(b))
		if sz == 0 || sz > MaxFrame || len(b) < 4+sz {
			break
		}
		b = b[4+sz:]
		n++
	}
	return n
}

// corpusBytes decodes a one-value `go test fuzz v1` corpus file holding
// a []byte.
func corpusBytes(f *testing.F, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		f.Fatalf("%s: not a one-[]byte corpus file", path)
	}
	return []byte(b)
}
