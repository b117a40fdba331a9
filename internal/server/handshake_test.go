package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestHelloRefusesPreviousVersion: a Hello at the previous protocol
// version — a peer that still writes the older request records — is
// answered with one Error frame naming both versions and the connection
// is closed, with no ack and no wait for more bytes.
func TestHelloRefusesPreviousVersion(t *testing.T) {
	s := New(Config{Cache: core.Config{Capacity: 100}, Shards: 2})
	defer s.Close()
	client, srvEnd := net.Pipe()
	defer client.Close()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		s.handle(srvEnd)
	}()
	if err := client.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(client)
	old := wire.Hello{Version: wire.Version - 1, Client: "old", Keys: []string{"a=1"}}
	if err := wire.WriteFrame(bw, wire.AppendHello(nil, old)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(bufio.NewReader(client))
	p, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.DecodeError(p)
	if err != nil {
		t.Fatalf("reply to a version %d Hello is not an Error frame: %v", old.Version, err)
	}
	for _, want := range []string{fmt.Sprintf("version %d", old.Version), fmt.Sprintf("speaks %d", wire.Version)} {
		if !strings.Contains(msg, want) {
			t.Errorf("refusal %q does not say %q", msg, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("after the Error frame: err = %v, want the connection closed", err)
	}
	client.Close()
	<-handled
}
