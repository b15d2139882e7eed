package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/kvstore"
)

// fuzzProxy is a stubProxy whose backends answer every forwarded op
// inline with a well-formed reply for that op, the way a kvserver
// would.
func fuzzProxy() *Proxy {
	p := stubProxy(3)
	stats, _ := json.Marshal(kvstore.Stats{Scheme: "stub", Shards: 1})
	for _, b := range p.topo.Load().backs {
		b.testSubmit = func(fr *wireBuf, ca *call) bool {
			var out []byte
			switch fr.b[4] &^ kvstore.OpFlagBudget {
			case kvstore.OpGet:
				out = kvstore.AppendU64([]byte{kvstore.StatusOK}, 7)
			case kvstore.OpPut:
				out = []byte{kvstore.StatusOK, 1}
			case kvstore.OpDel:
				out = []byte{kvstore.StatusNotFound}
			case kvstore.OpScan:
				from, _ := kvstore.PayloadU64(fr.b[4:], 1)
				out = kvstore.AppendU64(kvstore.AppendU64(kvstore.AppendU32([]byte{kvstore.StatusOK}, 1), from), 7)
			case kvstore.OpStats:
				out = append([]byte{kvstore.StatusOK}, stats...)
			default:
				out = []byte{kvstore.StatusErr}
			}
			rb := getBuf()
			*rb = kvstore.AppendFrame((*rb)[:0], out)
			ca.complete(rb)
			return true
		}
	}
	return p
}

// neuterAdmin rewrites the op of every whole frame at the head of in
// that is DRAIN or a topology change to an unknown op: DRAIN stops the
// backend lanes and the topology verbs dial addresses taken from the
// input, neither of which a stub cluster can survive. CLUSTER_INFO
// stays, so the admin path is still fuzzed.
func neuterAdmin(in []byte) []byte {
	for b := in; len(b) >= 5; {
		sz := int(binary.LittleEndian.Uint32(b))
		if sz == 0 || sz > kvstore.MaxFrame || len(b) < 4+sz {
			break
		}
		switch b[4] &^ kvstore.OpFlagBudget {
		case kvstore.OpDrain, kvstore.OpClusterAdd, kvstore.OpClusterDrain, kvstore.OpClusterRemove:
			b[4] = 0x7f
		}
		b = b[4+sz:]
	}
	return in
}

// FuzzProxyConn feeds an arbitrary byte stream into one client
// connection's handle loop — read through iotest.HalfReader so frames
// arrive split across reads — while the test drains the responses over
// net.Pipe. handle must return soon after the input ends, nothing may
// panic, every response must be a well-formed frame with a known
// status, and there must be exactly one response per whole frame at the
// head of the input. Seeded like kvstore's FuzzServerConn: the
// FuzzServeRequest corpus, each payload framed, plus all of them as one
// pipelined stream, plus one frame of every proxied verb.
func FuzzProxyConn(f *testing.F) {
	paths, err := filepath.Glob("../kvstore/testdata/fuzz/FuzzServeRequest/*")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no FuzzServeRequest corpus: %v", err)
	}
	var stream []byte
	for _, path := range paths {
		frame := kvstore.AppendFrame(nil, corpusBytes(f, path))
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	var verbs []byte
	for _, req := range [][]byte{
		getReqB(nil, 5), putReqB(nil, 5, 6), delReqB(nil, 5), scanReq(nil, 1, 10),
		{kvstore.OpStats}, {kvstore.OpClusterInfo}, {kvstore.OpDrain},
		kvstore.AppendU64(kvstore.AppendBudget(nil, kvstore.OpGet, time.Millisecond), 5),
	} {
		verbs = kvstore.AppendFrame(verbs, req)
	}
	f.Add(verbs)

	p := fuzzProxy()
	f.Fuzz(func(t *testing.T, in []byte) {
		in = neuterAdmin(bytes.Clone(in))
		sc, cc := net.Pipe()
		defer cc.Close()
		p.wg.Add(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.handle(inputConn{sc, iotest.HalfReader(bytes.NewReader(in))})
		}()
		cc.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReaderSize(cc, 64<<10)
		responses := 0
		for {
			resp, err := kvstore.ReadFrame(br, nil)
			if err == io.EOF && br.Buffered() == 0 {
				break
			}
			if err != nil {
				t.Fatalf("response %d: %v", responses, err)
			}
			if resp[0] > kvstore.StatusOverloaded {
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

// inputConn is a proxy-side client connection whose requests come from
// in: reads end in EOF once in is exhausted while writes still go out.
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
		if sz == 0 || sz > kvstore.MaxFrame || len(b) < 4+sz {
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
