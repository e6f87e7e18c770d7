package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Payloads are self-describing: a read can be judged from its bytes alone.
//
//	0..4    magic "AGB1"
//	4..12   write sequence (little-endian uint64; 0 is the loaded object)
//	12..14  key length
//	14..    key, then a body whose every byte follows from (key, seq)
//
// A decode that mixed chunks of two writes keeps one write's header but
// another's body bytes, so it fails the body check (torn); a read served
// for another key fails the key check.
const payloadMagic = "AGB1"

var (
	errWrongKey = errors.New("payload names another key")
	errTorn     = errors.New("payload body does not match its header (torn or corrupt)")
	errStale    = errors.New("read returned a version older than an acknowledged write")
	errPhantom  = errors.New("read returned a version never written")
)

// makePayload builds the size-byte payload of write seq of key.
func makePayload(key string, seq uint64, size int) []byte {
	buf := make([]byte, size)
	copy(buf, payloadMagic)
	binary.LittleEndian.PutUint64(buf[4:], seq)
	binary.LittleEndian.PutUint16(buf[12:], uint16(len(key)))
	copy(buf[14:], key)
	fillBody(buf[14+len(key):], bodySeed(key, seq))
	return buf
}

// bodySeed mixes key and write sequence into the body generator's state.
func bodySeed(key string, seq uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() ^ (seq+1)*0x9e3779b97f4a7c15
}

// splitmix64 is the body generator: word w of a body is splitmix64(seed+w).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fillBody(b []byte, seed uint64) {
	var w [8]byte
	for i := uint64(0); len(b) > 0; i++ {
		binary.LittleEndian.PutUint64(w[:], splitmix64(seed+i))
		b = b[copy(b, w[:]):]
	}
}

// bodyMatches regenerates the body word by word without allocating.
func bodyMatches(b []byte, seed uint64) bool {
	i := uint64(0)
	for ; len(b) >= 8; i++ {
		if binary.LittleEndian.Uint64(b) != splitmix64(seed+i) {
			return false
		}
		b = b[8:]
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], splitmix64(seed+i))
	for j := range b {
		if b[j] != w[j] {
			return false
		}
	}
	return true
}

// parsePayload checks that data is an intact payload of key with the
// expected size and returns the write sequence it carries.
func parsePayload(key string, data []byte, size int) (uint64, error) {
	if len(data) != size {
		return 0, fmt.Errorf("%w: %d bytes, want %d", errTorn, len(data), size)
	}
	if len(data) < 14 || string(data[:4]) != payloadMagic {
		return 0, fmt.Errorf("%w: bad magic", errTorn)
	}
	seq := binary.LittleEndian.Uint64(data[4:])
	kl := int(binary.LittleEndian.Uint16(data[12:]))
	if 14+kl > len(data) {
		return 0, fmt.Errorf("%w: key length %d", errTorn, kl)
	}
	if got := string(data[14 : 14+kl]); got != key {
		return 0, fmt.Errorf("%w: got %q, want %q", errWrongKey, got, key)
	}
	if !bodyMatches(data[14+kl:], bodySeed(key, seq)) {
		return 0, fmt.Errorf("%w: key %q seq %d", errTorn, key, seq)
	}
	return seq, nil
}

// judge holds the write history the staleness rule needs, per key: the
// newest acknowledged write and the newest write ever started. Each key
// has one writer at a time (writeLock), so sequences rise with time.
type judge struct {
	size    int
	acked   []atomic.Uint64
	started []atomic.Uint64
	locks   []sync.Mutex
}

func newJudge(keys, size int) *judge {
	return &judge{
		size:    size,
		acked:   make([]atomic.Uint64, keys),
		started: make([]atomic.Uint64, keys),
		locks:   make([]sync.Mutex, keys),
	}
}

// floor is the version a read starting now must not go behind.
func (j *judge) floor(k int) uint64 { return j.acked[k].Load() }

// checkRead judges one read of key k that started under floor: the bytes
// must be an intact payload of the key, at least as new as floor, and a
// version some writer actually started.
func (j *judge) checkRead(k int, key string, data []byte, floor uint64) (uint64, error) {
	seq, err := parsePayload(key, data, j.size)
	if err != nil {
		return 0, err
	}
	return seq, judgeSeq(seq, floor, j.started[k].Load())
}

// judgeSeq is the staleness rule on its own.
func judgeSeq(seq, floor, newestStarted uint64) error {
	if seq < floor {
		return fmt.Errorf("%w: seq %d below acknowledged %d", errStale, seq, floor)
	}
	if seq > newestStarted {
		return fmt.Errorf("%w: seq %d beyond newest started %d", errPhantom, seq, newestStarted)
	}
	return nil
}

// beginWrite takes key k's writer slot and returns the next sequence;
// endWrite releases it, acknowledging seq when the write succeeded.
func (j *judge) beginWrite(k int) uint64 {
	j.locks[k].Lock()
	seq := j.started[k].Load() + 1
	j.started[k].Store(seq)
	return seq
}

func (j *judge) endWrite(k int, seq uint64, ok bool) {
	if ok {
		j.acked[k].Store(seq)
	}
	j.locks[k].Unlock()
}
