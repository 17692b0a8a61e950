// Package capability implements Amoeba-style capabilities and ports.
//
// In Amoeba every service listens on a port and every object managed by a
// service is named by a capability: the service port, an object number, a
// rights mask, and a check field that protects the rights from forgery.
// The check field is computed with a one-way function from the object's
// secret random number and the rights mask, so a client can weaken a
// capability (restrict rights) only through the server, and cannot widen
// one at all. See Mullender & Tanenbaum, "Protection and Resource Control
// in Distributed Operating Systems" (the paper's [Mullender85b]).
//
// This package reproduces that scheme with an HMAC-like SHA-256
// construction from the standard library. The sizes follow Amoeba: a
// 48-bit port, a 24-bit object number, an 8-bit rights field and a 48-bit
// check field; the encoded wire form is 16 bytes.
package capability

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// Port identifies a service mailbox. Ports are 48-bit values in Amoeba;
// we keep them in the low 48 bits of a uint64. The zero Port is invalid
// and doubles as "no port" (e.g. a cleared lock field).
type Port uint64

// NilPort is the absent port: no service, no lock holder.
const NilPort Port = 0

// portMask keeps ports within Amoeba's 48-bit space.
const portMask = (1 << 48) - 1

// NewPort draws a fresh random port. Get-ports are secret; the public
// put-port is derived with Public.
func NewPort() Port {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform entropy source is
		// broken; there is no sensible recovery for a service that
		// depends on unguessable ports.
		panic(fmt.Sprintf("capability: entropy source failed: %v", err))
	}
	p := Port(binary.BigEndian.Uint64(b[:])) & portMask
	if p == NilPort {
		p = 1
	}
	return p
}

// Public derives the public put-port from a private get-port using the
// one-way function, so knowing where to send requests does not confer the
// right to receive them.
func (p Port) Public() Port {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(p))
	sum := sha256.Sum256(b[:])
	pub := Port(binary.BigEndian.Uint64(sum[:8])) & portMask
	if pub == NilPort {
		pub = 1
	}
	return pub
}

// IsNil reports whether the port is the nil (cleared) port.
func (p Port) IsNil() bool { return p == NilPort }

// String renders the port as 12 hex digits, the customary Amoeba notation.
func (p Port) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(p))
	return hex.EncodeToString(b[2:])
}

// ParsePort parses a port written in hexadecimal: the 12 digits String
// prints, or up to 16 with leading zeros as the documentation writes
// them. The whole string must parse — a typo that a lenient scan would
// silently truncate must not name a different port than the one the
// other side holds.
func ParsePort(s string) (Port, error) {
	if len(s) > 16 {
		return NilPort, fmt.Errorf("capability: port %q: more than 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return NilPort, fmt.Errorf("capability: port %q: want hex digits", s)
	}
	return Port(v), nil
}

// Rights is the 8-bit rights mask carried in a capability.
type Rights uint8

// Rights bits used by the file and block services. A service is free to
// interpret the bits as it wishes; these names cover the operations in the
// paper.
const (
	RightRead    Rights = 1 << iota // read pages / blocks
	RightWrite                      // write pages / blocks
	RightCreate                     // create versions / allocate blocks
	RightCommit                     // commit a version
	RightDestroy                    // delete files / free blocks
	RightAdmin                      // administrative operations (gc, recovery)

	// RightsAll grants every defined right.
	RightsAll Rights = 0xff
)

// Has reports whether r includes every right in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// String lists the set bits mnemonically, e.g. "rwc" for read/write/create.
func (r Rights) String() string {
	names := []struct {
		bit Rights
		ch  byte
	}{
		{RightRead, 'r'}, {RightWrite, 'w'}, {RightCreate, 'c'},
		{RightCommit, 'm'}, {RightDestroy, 'd'}, {RightAdmin, 'a'},
	}
	buf := make([]byte, 0, 8)
	for _, n := range names {
		if r&n.bit != 0 {
			buf = append(buf, n.ch)
		}
	}
	if len(buf) == 0 {
		return "-"
	}
	return string(buf)
}

// Capability names one object at one service with a set of rights.
// Capabilities are values; they are freely copyable and comparable.
type Capability struct {
	Port   Port   // public port of the managing service
	Object uint32 // object number within the service (24 bits used)
	Rights Rights // rights this capability conveys
	Check  uint64 // one-way check field (48 bits used)
}

// Nil is the zero capability, used for "no file" / "no version".
var Nil Capability

// IsNil reports whether the capability is the zero capability.
func (c Capability) IsNil() bool { return c == Nil }

// String renders the capability compactly for logs and the CLI.
func (c Capability) String() string {
	if c.IsNil() {
		return "cap(nil)"
	}
	return fmt.Sprintf("cap(%s:%d:%s)", c.Port, c.Object, c.Rights)
}

// EncodedLen is the wire size of a capability: 128 bits as in Amoeba
// (48-bit port, 24-bit object, 8-bit rights, 48-bit check).
const EncodedLen = 16

// put48 stores the low 48 bits of v big-endian into b[0:6].
func put48(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

// get48 loads a big-endian 48-bit value from b[0:6].
func get48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// Encode appends the 16-byte wire form of c to dst and returns the
// extended slice.
func (c Capability) Encode(dst []byte) []byte {
	var b [EncodedLen]byte
	put48(b[0:6], uint64(c.Port))
	b[6] = byte(c.Object >> 16)
	b[7] = byte(c.Object >> 8)
	b[8] = byte(c.Object)
	b[9] = byte(c.Rights)
	put48(b[10:16], c.Check)
	return append(dst, b[:]...)
}

// Decode parses a capability from the front of src, returning the
// capability and the remaining bytes.
func Decode(src []byte) (Capability, []byte, error) {
	if len(src) < EncodedLen {
		return Nil, src, fmt.Errorf("capability: short encoding: %d bytes", len(src))
	}
	var c Capability
	c.Port = Port(get48(src[0:6]))
	c.Object = uint32(src[6])<<16 | uint32(src[7])<<8 | uint32(src[8])
	c.Rights = Rights(src[9])
	c.Check = get48(src[10:16])
	return c, src[EncodedLen:], nil
}

// Text renders the capability as 32 hex digits for storage in shell
// scripts and configuration files.
func (c Capability) Text() string {
	return hex.EncodeToString(c.Encode(nil))
}

// ParseText parses the Text form back into a capability.
func ParseText(s string) (Capability, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Nil, fmt.Errorf("capability: bad text form: %w", err)
	}
	c, rest, err := Decode(raw)
	if err != nil {
		return Nil, err
	}
	if len(rest) != 0 {
		return Nil, fmt.Errorf("capability: %d trailing bytes in text form", len(rest))
	}
	return c, nil
}

// ErrBadCheck is returned when a capability's check field does not match
// the object's secret, i.e. the capability is forged or stale.
var ErrBadCheck = errors.New("capability: bad check field")

// ErrRights is returned when a capability lacks a required right.
var ErrRights = errors.New("capability: insufficient rights")

// Factory mints and verifies capabilities for one service. It holds the
// per-object secrets ("random numbers" in Amoeba terms) that make check
// fields unforgeable. A Factory is safe for concurrent use: servers
// verify while new objects register, and in a multi-server service the
// replicated file table adopts peer secrets at runtime.
//
// In the paper's multi-server picture the secrets live in the replicated
// file table itself, so any server of the service can verify any
// capability. Secret, Adopt and Reseat expose exactly that surface: the
// replication layer (internal/ftab) ships secrets between the servers'
// factories alongside the table entries, and a server joining an
// established service reseats its factory onto the service's port.
type Factory struct {
	mu      sync.RWMutex
	port    Port
	secrets map[uint32]uint64
}

// NewFactory creates a factory for the service listening on port.
func NewFactory(port Port) *Factory {
	return &Factory{port: port, secrets: make(map[uint32]uint64)}
}

// Port returns the service port capabilities minted here will carry.
func (f *Factory) Port() Port {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.port
}

// Register assigns a fresh secret to object and returns an owner
// capability carrying all rights.
func (f *Factory) Register(object uint32) Capability {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("capability: entropy source failed: %v", err))
	}
	secret := binary.BigEndian.Uint64(b[:])
	f.mu.Lock()
	defer f.mu.Unlock()
	f.secrets[object] = secret
	return f.mint(object, RightsAll, secret)
}

// Secret returns the object's secret for replication to a sibling
// server's factory.
func (f *Factory) Secret(object uint32) (uint64, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.secrets[object]
	return s, ok
}

// Adopt installs a secret received from a sibling server (replacing any
// local one) and returns the object's owner capability, which is
// identical to the one the sibling minted: same port, same secret, same
// check field.
func (f *Factory) Adopt(object uint32, secret uint64) Capability {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.secrets[object] = secret
	return f.mint(object, RightsAll, secret)
}

// Reseat moves the factory onto a new service port, keeping every
// secret. Outstanding capabilities minted under the old port stop
// verifying (the check field binds the port); the caller re-mints the
// ones it needs with Owner. A server joining an established service
// mesh reseats onto the incumbent identity.
func (f *Factory) Reseat(port Port) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.port = port
}

// Owner re-mints the owner capability of a registered object under the
// factory's current port.
func (f *Factory) Owner(object uint32) (Capability, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	secret, ok := f.secrets[object]
	if !ok {
		return Nil, false
	}
	return f.mint(object, RightsAll, secret), true
}

// Forget removes an object's secret, invalidating all outstanding
// capabilities for it.
func (f *Factory) Forget(object uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.secrets, object)
}

// Restrict returns a copy of c with rights narrowed to keep. The check
// field is recomputed so the narrowed capability is valid and the original
// cannot be recovered from it.
func (f *Factory) Restrict(c Capability, keep Rights) (Capability, error) {
	if err := f.Verify(c, 0); err != nil {
		return Nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	secret, ok := f.secrets[c.Object]
	if !ok {
		return Nil, ErrBadCheck
	}
	return f.mint(c.Object, c.Rights&keep, secret), nil
}

// Verify checks c's check field and that it conveys the rights in need.
func (f *Factory) Verify(c Capability, need Rights) error {
	f.mu.RLock()
	secret, ok := f.secrets[c.Object]
	var want Capability
	if ok {
		want = f.mint(c.Object, c.Rights, secret)
	}
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("object %d: %w", c.Object, ErrBadCheck)
	}
	if want.Check != c.Check {
		return fmt.Errorf("object %d: %w", c.Object, ErrBadCheck)
	}
	if !c.Rights.Has(need) {
		return fmt.Errorf("object %d: have %s need %s: %w", c.Object, c.Rights, need, ErrRights)
	}
	return nil
}

// mint computes the check field for (object, rights) under secret.
func (f *Factory) mint(object uint32, rights Rights, secret uint64) Capability {
	var b [8 + 8 + 4 + 1]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(f.port))
	binary.BigEndian.PutUint64(b[8:16], secret)
	binary.BigEndian.PutUint32(b[16:20], object)
	b[20] = byte(rights)
	sum := sha256.Sum256(b[:])
	check := binary.BigEndian.Uint64(sum[:8]) & portMask
	return Capability{Port: f.port, Object: object, Rights: rights, Check: check}
}
