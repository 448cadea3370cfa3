package lorawan

import (
	"errors"
	"fmt"

	"softlora/internal/lora"
)

// Session is an ABP (activation-by-personalization) device session.
type Session struct {
	DevAddr uint32
	NwkSKey AES128Key
	AppSKey AES128Key
}

// Device is a Class A LoRaWAN end device: it emits signed, encrypted
// uplinks, each consuming one frame counter value.
type Device struct {
	Session Session
	Params  lora.Params

	fCntUp uint32
}

// NewDevice builds a Class A device.
func NewDevice(s Session, p lora.Params) *Device {
	return &Device{Session: s, Params: p}
}

// BuildUplink constructs, encrypts and signs an unconfirmed uplink carrying
// payload on the given port, consuming one frame counter value.
func (d *Device) BuildUplink(port int, payload []byte) (*MACFrame, error) {
	if port < 1 || port > 223 {
		return nil, fmt.Errorf("lorawan: application port %d out of [1, 223]", port)
	}
	enc, err := EncryptFRMPayload(d.Session.AppSKey, d.Session.DevAddr, d.fCntUp, DirUplink, payload)
	if err != nil {
		return nil, err
	}
	f := &MACFrame{
		MType:      MTypeUnconfirmedUp,
		DevAddr:    d.Session.DevAddr,
		FCnt:       uint16(d.fCntUp),
		FPort:      port,
		FRMPayload: enc,
	}
	if err := f.Sign(d.Session.NwkSKey); err != nil {
		return nil, err
	}
	d.fCntUp++
	return f, nil
}

// NetworkServer validates uplinks the way a LoRaWAN network server does:
// MIC verification plus a strictly-increasing frame-counter check. It is
// deliberately faithful to the spec so the frame delay attack's success
// against it is meaningful.
type NetworkServer struct {
	sessions map[uint32]Session
	lastFCnt map[uint32]uint32
	seen     map[uint32]bool
}

// NewNetworkServer builds an empty server.
func NewNetworkServer() *NetworkServer {
	return &NetworkServer{
		sessions: make(map[uint32]Session),
		lastFCnt: make(map[uint32]uint32),
		seen:     make(map[uint32]bool),
	}
}

// Register adds a device session.
func (ns *NetworkServer) Register(s Session) { ns.sessions[s.DevAddr] = s }

// Validation errors.
var (
	ErrUnknownDevice = errors.New("lorawan: unknown device address")
	ErrCounterReplay = errors.New("lorawan: frame counter not increasing (classic replay)")
	ErrNotDataUplink = errors.New("lorawan: not a data uplink")
)

// HandleUplink verifies and decrypts an on-air uplink. It returns the
// decrypted application payload. A bit-exact *delayed* frame (the frame
// delay attack) passes both checks because its counter has not been seen
// yet — the property the paper exploits. Any message type other than an
// unconfirmed or confirmed data uplink is refused with ErrNotDataUplink
// before the counter moves: a signed downlink verifies under the downlink
// MIC direction, and would otherwise burn uplink counter values.
func (ns *NetworkServer) HandleUplink(phyPayload []byte) (devAddr uint32, fCnt uint16, payload []byte, err error) {
	f, err := ParseFrame(phyPayload)
	if err != nil {
		return 0, 0, nil, err
	}
	if f.MType != MTypeUnconfirmedUp && f.MType != MTypeConfirmedUp {
		return 0, 0, nil, fmt.Errorf("%w: MType %d", ErrNotDataUplink, f.MType)
	}
	s, okSess := ns.sessions[f.DevAddr]
	if !okSess {
		return 0, 0, nil, fmt.Errorf("%w: %08x", ErrUnknownDevice, f.DevAddr)
	}
	if err := f.Verify(s.NwkSKey); err != nil {
		return 0, 0, nil, err
	}
	if ns.seen[f.DevAddr] && f.FCnt <= uint16(ns.lastFCnt[f.DevAddr]) {
		return 0, 0, nil, fmt.Errorf("%w: got %d, last %d", ErrCounterReplay, f.FCnt, ns.lastFCnt[f.DevAddr])
	}
	ns.lastFCnt[f.DevAddr] = uint32(f.FCnt)
	ns.seen[f.DevAddr] = true
	dec, err := EncryptFRMPayload(s.AppSKey, f.DevAddr, uint32(f.FCnt), DirUplink, f.FRMPayload)
	if err != nil {
		return 0, 0, nil, err
	}
	return f.DevAddr, f.FCnt, dec, nil
}
