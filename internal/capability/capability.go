// Package capability implements Amoeba-style capabilities and ports.
//
// In Amoeba every service listens on a port and every object managed by a
// service is named by a capability: the service port, an object number, a
// rights mask, and a check field that protects the rights from forgery.
// An object's random number is kept with the object, as the check field
// of its owner capability: all rights, and 48 random bits drawn when the
// object is made (Factory.Mint). A restricted capability's check field
// is a one-way function of the port, the object, the owner check and the
// rights mask, so the holder of a restricted capability can neither
// widen it nor recover the owner's. A service checks every capability
// against the owner capability stored with the object (Verify); it keeps
// no secrets of its own, so what it stores durably with the object
// verifies after a restart and at every server that can read it. See
// Mullender & Tanenbaum, "Protection and Resource Control in Distributed
// Operating Systems" (the paper's [Mullender85b]).
//
// The one-way function is SHA-256 from the standard library. The sizes
// follow Amoeba: a 48-bit port, a 24-bit object number, an 8-bit rights
// field and a 48-bit check field; the encoded wire form is 16 bytes.
package capability

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
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
// its object's owner capability, i.e. the capability is forged or stale.
var ErrBadCheck = errors.New("capability: bad check field")

// ErrRights is returned when a capability lacks a required right.
var ErrRights = errors.New("capability: insufficient rights")

// Factory mints owner capabilities for one service port. It keeps no
// per-object state: whoever mints an owner capability stores it with
// the object, and every capability for the object is checked against
// that stored copy (Verify).
type Factory struct {
	port Port
}

// NewFactory creates a factory for the service listening on port.
func NewFactory(port Port) *Factory { return &Factory{port: port} }

// Port returns the service port capabilities minted here carry.
func (f *Factory) Port() Port { return f.port }

// Mint returns a fresh owner capability for object: every right, and a
// check field of 48 random bits — the object's random number.
func (f *Factory) Mint(object uint32) Capability {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("capability: entropy source failed: %v", err))
	}
	check := binary.BigEndian.Uint64(b[:]) & portMask
	return Capability{Port: f.port, Object: object, Rights: RightsAll, Check: check}
}

// Verify checks c against owner, the owner capability stored with c's
// object, and that c conveys the rights in need.
func Verify(owner, c Capability, need Rights) error {
	if owner.IsNil() || c != withRights(owner, c.Rights) {
		return fmt.Errorf("object %d: %w", c.Object, ErrBadCheck)
	}
	if !c.Rights.Has(need) {
		return fmt.Errorf("object %d: have %s need %s: %w", c.Object, c.Rights, need, ErrRights)
	}
	return nil
}

// Restrict checks c against owner and returns it narrowed to the
// rights in keep. The narrowed check field is a one-way function of the
// owner's, so c cannot be recovered from the result.
func Restrict(owner, c Capability, keep Rights) (Capability, error) {
	if err := Verify(owner, c, 0); err != nil {
		return Nil, err
	}
	return withRights(owner, c.Rights&keep), nil
}

// withRights returns the capability for owner's object with the given
// rights: owner itself for the owner's rights, otherwise a check field
// hashed from the port, the object, the owner check and the rights.
func withRights(owner Capability, rights Rights) Capability {
	c := owner
	if rights == owner.Rights {
		return c
	}
	var b [8 + 4 + 8 + 1]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(owner.Port))
	binary.BigEndian.PutUint32(b[8:12], owner.Object)
	binary.BigEndian.PutUint64(b[12:20], owner.Check)
	b[20] = byte(rights)
	sum := sha256.Sum256(b[:])
	c.Rights = rights
	c.Check = binary.BigEndian.Uint64(sum[:8]) & portMask
	return c
}
