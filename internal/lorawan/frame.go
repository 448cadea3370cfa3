package lorawan

import (
	"errors"
	"fmt"
)

// MType is the LoRaWAN MAC message type.
type MType byte

// LoRaWAN 1.0.2 message types.
const (
	MTypeJoinRequest MType = iota
	MTypeJoinAccept
	MTypeUnconfirmedUp
	MTypeUnconfirmedDown
	MTypeConfirmedUp
	MTypeConfirmedDown
	MTypeRFU
	MTypeProprietary
)

// IsUplink reports whether the message type travels device → gateway.
func (m MType) IsUplink() bool {
	return m == MTypeJoinRequest || m == MTypeUnconfirmedUp || m == MTypeConfirmedUp
}

// Frame parsing errors.
var (
	ErrFrameTooShort = errors.New("lorawan: frame too short")
	ErrBadMajor      = errors.New("lorawan: unsupported major version")
	ErrReservedBits  = errors.New("lorawan: reserved MHDR bits set")
)

// FCtrl is the frame-control byte of the FHDR.
type FCtrl struct {
	ADR       bool
	ADRAckReq bool
	ACK       bool
	FPending  bool
	FOptsLen  int
}

func (f FCtrl) byteValue() byte {
	var b byte
	if f.ADR {
		b |= 0x80
	}
	if f.ADRAckReq {
		b |= 0x40
	}
	if f.ACK {
		b |= 0x20
	}
	if f.FPending {
		b |= 0x10
	}
	return b | byte(f.FOptsLen&0x0F)
}

func parseFCtrl(b byte) FCtrl {
	return FCtrl{
		ADR:       b&0x80 != 0,
		ADRAckReq: b&0x40 != 0,
		ACK:       b&0x20 != 0,
		FPending:  b&0x10 != 0,
		FOptsLen:  int(b & 0x0F),
	}
}

// MACFrame is a parsed LoRaWAN data frame (PHYPayload).
type MACFrame struct {
	MType   MType
	DevAddr uint32
	FCtrl   FCtrl
	// FCnt is the 16-bit on-air frame counter.
	FCnt uint16
	// FOpts carries piggybacked MAC commands (0-15 bytes).
	FOpts []byte
	// FPort distinguishes application ports; port 0 carries MAC commands.
	// -1 means absent (no FRMPayload).
	FPort int
	// FRMPayload is the (encrypted, on-air) application payload.
	FRMPayload []byte
	// MIC is the 4-byte message integrity code.
	MIC [4]byte
}

// Marshal serializes the frame to its on-air PHYPayload byte layout:
// MHDR | DevAddr | FCtrl | FCnt | FOpts | FPort | FRMPayload | MIC.
func (f *MACFrame) Marshal() ([]byte, error) {
	if len(f.FOpts) > 15 {
		return nil, fmt.Errorf("lorawan: FOpts too long (%d)", len(f.FOpts))
	}
	fc := f.FCtrl
	fc.FOptsLen = len(f.FOpts)
	out := make([]byte, 0, 12+len(f.FOpts)+1+len(f.FRMPayload)+4)
	out = append(out, byte(f.MType)<<5) // major 0
	var addr [4]byte
	putUint32LE(addr[:], f.DevAddr)
	out = append(out, addr[:]...)
	out = append(out, fc.byteValue())
	out = append(out, byte(f.FCnt), byte(f.FCnt>>8))
	out = append(out, f.FOpts...)
	if f.FPort >= 0 {
		out = append(out, byte(f.FPort))
		out = append(out, f.FRMPayload...)
	}
	out = append(out, f.MIC[:]...)
	return out, nil
}

// macPayload returns the byte range covered by the MIC (everything except
// the trailing MIC itself).
func (f *MACFrame) macPayload() ([]byte, error) {
	full, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	return full[:len(full)-4], nil
}

// Sign computes and stores the frame MIC using the network session key.
func (f *MACFrame) Sign(nwkSKey AES128Key) error {
	msg, err := f.macPayload()
	if err != nil {
		return err
	}
	dir := DirDownlink
	if f.MType.IsUplink() {
		dir = DirUplink
	}
	mic, err := ComputeMIC(nwkSKey, f.DevAddr, uint32(f.FCnt), dir, msg)
	if err != nil {
		return err
	}
	f.MIC = mic
	return nil
}

// Verify checks the stored MIC against the network session key.
func (f *MACFrame) Verify(nwkSKey AES128Key) error {
	msg, err := f.macPayload()
	if err != nil {
		return err
	}
	dir := DirDownlink
	if f.MType.IsUplink() {
		dir = DirUplink
	}
	return VerifyMIC(nwkSKey, f.DevAddr, uint32(f.FCnt), dir, msg, f.MIC)
}

// ParseFrame parses an on-air PHYPayload into a MACFrame. It does not
// verify the MIC; call Verify for that. Every field of an accepted frame
// is kept, so its Marshal reproduces data exactly: the MIC that Verify
// recomputes covers the bytes received. In particular the MHDR's RFU
// bits 4–2, which MACFrame cannot hold, must be zero (ErrReservedBits).
func ParseFrame(data []byte) (*MACFrame, error) {
	// MHDR(1) + DevAddr(4) + FCtrl(1) + FCnt(2) + MIC(4).
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(data))
	}
	mhdr := data[0]
	if mhdr&0x03 != 0 {
		return nil, fmt.Errorf("%w: major %d", ErrBadMajor, mhdr&0x03)
	}
	if mhdr&0x1c != 0 {
		return nil, fmt.Errorf("%w: MHDR %#02x", ErrReservedBits, mhdr)
	}
	f := &MACFrame{MType: MType(mhdr >> 5)}
	f.DevAddr = uint32LE(data[1:5])
	f.FCtrl = parseFCtrl(data[5])
	f.FCnt = uint16(data[6]) | uint16(data[7])<<8
	at := 8
	if at+f.FCtrl.FOptsLen+4 > len(data) {
		return nil, fmt.Errorf("%w: FOpts overruns frame", ErrFrameTooShort)
	}
	if f.FCtrl.FOptsLen > 0 {
		f.FOpts = append([]byte(nil), data[at:at+f.FCtrl.FOptsLen]...)
		at += f.FCtrl.FOptsLen
	}
	rest := data[at : len(data)-4]
	f.FPort = -1
	if len(rest) > 0 {
		f.FPort = int(rest[0])
		f.FRMPayload = append([]byte(nil), rest[1:]...)
	}
	copy(f.MIC[:], data[len(data)-4:])
	return f, nil
}
