package obs

import (
	"crypto/rand"
	"fmt"
	"sync"
	"time"
)

// Run IDs are ULIDs (48 bits of millisecond timestamp followed by 80 random
// bits, encoded as 26 characters of Crockford base32), hand-rolled to keep
// the module dependency-free. Lexicographic order is submission-time order,
// so a directory listing of the run registry reads as a chronology, and IDs
// are URL- and filename-safe.

const crockford = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

var idMu sync.Mutex
var idLastMs int64
var idLastRand [10]byte

// NewID returns a fresh ULID for the given wall-clock time. IDs created
// within the same millisecond increment the previous random component, so
// they stay unique and strictly ordered even under bursts (the load driver
// submits thousands per second).
func NewID(t time.Time) string {
	ms := t.UnixMilli()
	idMu.Lock()
	if ms == idLastMs {
		for i := len(idLastRand) - 1; i >= 0; i-- {
			idLastRand[i]++
			if idLastRand[i] != 0 {
				break
			}
		}
	} else {
		idLastMs = ms
		if _, err := rand.Read(idLastRand[:]); err != nil {
			panic(fmt.Sprintf("obs: entropy: %v", err))
		}
	}
	var bin [16]byte
	bin[0] = byte(ms >> 40)
	bin[1] = byte(ms >> 32)
	bin[2] = byte(ms >> 24)
	bin[3] = byte(ms >> 16)
	bin[4] = byte(ms >> 8)
	bin[5] = byte(ms)
	copy(bin[6:], idLastRand[:])
	idMu.Unlock()

	// 128 bits -> 26 base32 chars, most significant first (the top char
	// covers only 3 bits, so it is at most '7').
	var out [26]byte
	for i := 25; i >= 0; i-- {
		out[i] = crockford[extract5(bin[:], uint(25-i)*5)]
	}
	return string(out[:])
}

// extract5 reads the 5-bit group whose least-significant bit sits shift
// bits above the little end of the big-endian integer b.
func extract5(b []byte, shift uint) byte {
	var v byte
	for i := uint(0); i < 5; i++ {
		bit := shift + i
		if bit >= uint(len(b))*8 {
			break
		}
		bytePos := len(b) - 1 - int(bit/8)
		if b[bytePos]&(1<<(bit%8)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// ValidID reports whether s looks like a ULID this package issued: 26
// Crockford base32 chars, first char <= '7'. OpenRegistry uses it to skip
// foreign directories.
func ValidID(s string) bool {
	if len(s) != 26 || s[0] > '7' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			continue
		}
		found := false
		for j := 10; j < len(crockford); j++ {
			if crockford[j] == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
