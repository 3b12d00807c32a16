package netem

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation. It panics on malformed input; use
// it for literals in code and tests.
func ParseAddr(s string) Addr {
	a, err := ParseAddrErr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddrErr parses dotted-quad notation, returning an error on malformed
// input.
func ParseAddrErr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("nsim: malformed address %q", s)
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("nsim: malformed address %q", s)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// String formats the address as dotted-quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// InSubnet reports whether the address lies within prefix/bits.
func (a Addr) InSubnet(prefix Addr, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return a == prefix
	}
	mask := ^Addr(0) << (32 - bits)
	return a&mask == prefix&mask
}

// AddrPort is an (address, port) endpoint.
type AddrPort struct {
	Addr Addr
	Port uint16
}

// String formats the endpoint as "a.b.c.d:port".
func (ap AddrPort) String() string {
	return fmt.Sprintf("%s:%d", ap.Addr, ap.Port)
}
