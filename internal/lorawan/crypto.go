// Package lorawan implements the LoRaWAN 1.0.2 MAC layer: uplink/downlink
// frame formats, AES-128 payload encryption, AES-CMAC message integrity
// codes, and ABP sessions with frame counters.
//
// The package exists to demonstrate the paper's security argument
// end-to-end: the frame delay attack replays bit-exact frames, so MIC
// verification and frame-counter checks — the defenses LoRaWAN prescribes —
// accept the delayed frame. Only the PHY-layer frequency-bias check of the
// SoftLoRa gateway (package core) detects it.
package lorawan

import (
	"crypto/aes"
	"crypto/subtle"
	"errors"
	"fmt"
)

// AES128Key is a LoRaWAN session key (NwkSKey or AppSKey).
type AES128Key [16]byte

// Errors from the crypto routines.
var (
	ErrBadMIC = errors.New("lorawan: message integrity check failed")
)

// cmacSubkeys derives the RFC 4493 subkeys K1, K2 from the AES key.
func cmacSubkeys(key AES128Key) (k1, k2 [16]byte, err error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return k1, k2, fmt.Errorf("lorawan: %w", err)
	}
	var l [16]byte
	block.Encrypt(l[:], l[:])
	shift := func(in [16]byte) (out [16]byte) {
		var carry byte
		for i := 15; i >= 0; i-- {
			out[i] = in[i]<<1 | carry
			carry = in[i] >> 7
		}
		if carry != 0 {
			out[15] ^= 0x87
		}
		return out
	}
	k1 = shift(l)
	k2 = shift(k1)
	return k1, k2, nil
}

// CMAC computes the full 16-byte AES-CMAC (RFC 4493) of msg.
func CMAC(key AES128Key, msg []byte) ([16]byte, error) {
	var mac [16]byte
	k1, k2, err := cmacSubkeys(key)
	if err != nil {
		return mac, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return mac, fmt.Errorf("lorawan: %w", err)
	}
	n := (len(msg) + 15) / 16
	complete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}
	var last [16]byte
	if complete {
		copy(last[:], msg[(n-1)*16:])
		for i := 0; i < 16; i++ {
			last[i] ^= k1[i]
		}
	} else {
		rem := msg[(n-1)*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for i := 0; i < 16; i++ {
			last[i] ^= k2[i]
		}
	}
	var x [16]byte
	var y [16]byte
	for i := 0; i < n-1; i++ {
		for j := 0; j < 16; j++ {
			y[j] = x[j] ^ msg[i*16+j]
		}
		block.Encrypt(x[:], y[:])
	}
	for j := 0; j < 16; j++ {
		y[j] = x[j] ^ last[j]
	}
	block.Encrypt(mac[:], y[:])
	return mac, nil
}

// Direction of a LoRaWAN frame for crypto block construction.
type Direction byte

// Frame directions.
const (
	DirUplink   Direction = 0
	DirDownlink Direction = 1
)

// EncryptFRMPayload applies the LoRaWAN 1.0.2 §4.3.3 payload encryption
// (AES-128 in the spec's counter-like A-block mode). Encryption and
// decryption are the same operation.
func EncryptFRMPayload(key AES128Key, devAddr uint32, fCnt uint32, dir Direction, payload []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("lorawan: %w", err)
	}
	out := make([]byte, len(payload))
	var a, s [16]byte
	a[0] = 0x01
	a[5] = byte(dir)
	putUint32LE(a[6:10], devAddr)
	putUint32LE(a[10:14], fCnt)
	for i := 0; i < len(payload); i += 16 {
		a[15] = byte(i/16 + 1)
		block.Encrypt(s[:], a[:])
		for j := 0; j < 16 && i+j < len(payload); j++ {
			out[i+j] = payload[i+j] ^ s[j]
		}
	}
	return out, nil
}

// ComputeMIC computes the 4-byte LoRaWAN frame MIC: the first four bytes of
// AES-CMAC(NwkSKey, B0 | msg), where B0 binds direction, device address and
// frame counter (LoRaWAN 1.0.2 §4.4).
func ComputeMIC(key AES128Key, devAddr uint32, fCnt uint32, dir Direction, msg []byte) ([4]byte, error) {
	var mic [4]byte
	b0 := make([]byte, 16+len(msg))
	b0[0] = 0x49
	b0[5] = byte(dir)
	putUint32LE(b0[6:10], devAddr)
	putUint32LE(b0[10:14], fCnt)
	b0[15] = byte(len(msg))
	copy(b0[16:], msg)
	full, err := CMAC(key, b0)
	if err != nil {
		return mic, err
	}
	copy(mic[:], full[:4])
	return mic, nil
}

// VerifyMIC checks a frame MIC in constant time.
func VerifyMIC(key AES128Key, devAddr uint32, fCnt uint32, dir Direction, msg []byte, mic [4]byte) error {
	want, err := ComputeMIC(key, devAddr, fCnt, dir, msg)
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(want[:], mic[:]) != 1 {
		return ErrBadMIC
	}
	return nil
}

func putUint32LE(dst []byte, v uint32) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
}

func uint32LE(src []byte) uint32 {
	return uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24
}
