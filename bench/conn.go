package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"lira/internal/wire"
)

// frameConn is one load-generator connection. Its reads wait on a
// deadline — the time the next scheduled input is due — so one goroutine
// both receives frames and sends on schedule. Bytes of a frame cut short
// by the deadline stay buffered until the rest arrives.
type frameConn struct {
	c   net.Conn
	buf []byte
	off int
	out []byte // reusable encode buffer
}

const frameHeaderLen = 5 // uint32 little-endian payload length + type byte

func dialFrames(addr string) (*frameConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &frameConn{c: c, buf: make([]byte, 0, 1<<16)}, nil
}

// send writes one encoded frame.
func (f *frameConn) send(frame []byte) error {
	return wire.WriteFrame(f.c, frame)
}

// readUntil hands every frame that arrives before deadline to handle and
// returns when the deadline passes. A deadline already in the past
// returns at once without reading.
func (f *frameConn) readUntil(deadline time.Time, handle func(wire.Type, []byte) error) error {
	if !time.Now().Before(deadline) {
		return nil
	}
	if err := f.c.SetReadDeadline(deadline); err != nil {
		return err
	}
	for {
		for len(f.buf)-f.off >= frameHeaderLen {
			n := int(binary.LittleEndian.Uint32(f.buf[f.off:]))
			if n > wire.MaxPayload {
				return fmt.Errorf("frame payload of %d bytes exceeds the wire limit", n)
			}
			if len(f.buf)-f.off < frameHeaderLen+n {
				break
			}
			typ := wire.Type(f.buf[f.off+4])
			payload := f.buf[f.off+frameHeaderLen : f.off+frameHeaderLen+n]
			f.off += frameHeaderLen + n
			if err := handle(typ, payload); err != nil {
				return err
			}
		}
		// Compact, then make room for at least one more header's worth.
		rest := copy(f.buf[:cap(f.buf)], f.buf[f.off:])
		f.buf, f.off = f.buf[:rest], 0
		if cap(f.buf)-len(f.buf) < 4096 {
			f.buf = append(f.buf[:cap(f.buf)], make([]byte, cap(f.buf))...)[:rest]
		}
		n, err := f.c.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+n]
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return err
		}
	}
}

// await reads frames until done reports true or the timeout expires.
func (f *frameConn) await(timeout time.Duration, handle func(wire.Type, []byte) error, done func() bool) error {
	limit := time.Now().Add(timeout)
	for !done() {
		if !time.Now().Before(limit) {
			return fmt.Errorf("no reply within %v", timeout)
		}
		step := time.Now().Add(20 * time.Millisecond)
		if step.After(limit) {
			step = limit
		}
		if err := f.readUntil(step, handle); err != nil {
			return err
		}
	}
	return nil
}

// awaitResult reads frames until a result for query id arrives.
func (f *frameConn) awaitResult(id uint32) error {
	got := false
	return f.await(60*time.Second, func(t wire.Type, p []byte) error {
		got = got || (t == wire.TypeResult && len(p) >= 4 && binary.LittleEndian.Uint32(p) == id)
		return nil
	}, func() bool { return got })
}

func (f *frameConn) close() { f.c.Close() }
