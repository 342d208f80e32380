package tcpnet

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestSendToFullAcceptQueueIsBounded: a peer whose accept queue is full drops
// every SYN, so a dial without a timeout waits out the kernel's SYN retries
// (minutes). Send must instead fail within twice the write timeout. The peer
// is a raw socket listening with backlog 0, filled by one connection it
// never accepts.
func TestSendToFullAcceptQueueIsBounded(t *testing.T) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer filler.Close()

	a, err := Listen("a", "127.0.0.1:0", map[string]string{"full": addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const timeout = 200 * time.Millisecond
	a.SetWriteTimeout(timeout)
	start := time.Now()
	err = a.Send("full", []byte("x"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Send to a peer that cannot accept the connection succeeded")
	}
	if elapsed > 2*timeout {
		t.Fatalf("Send took %v with a %v write timeout, want <= %v", elapsed, timeout, 2*timeout)
	}
	t.Logf("Send failed after %v: %v", elapsed, err)
}
